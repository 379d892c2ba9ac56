"""Benchmark workloads: networks, datasets and the files the CLI reads.

Every workload uses K=8 and a 16-bit accumulator. The networks are fixed.
Each workload labels one fixed pool of inputs with `fixtures.labeled_dataset`.
The calibration set (whose first samples are also the tuning set) is a fixed
slice of that pool, so `quantize` and `tune-sparsity` build the same model
for every seed and the tuned plan is a property of the network. The benchmark
seed draws the eval samples from the rest of the pool without replacement, so
a seed changes the inputs but not their distribution.
Batch sizes are workload properties (the gather form's memory grows with the
batch), so a run gets longer by repeating commands, never by growing a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from stemc import fixtures
from stemc.modelio import FloatModel, LayerDesc, infer_shapes, save_dataset, save_model

K = 8
ACC_BITS = 16
TUNE_BUDGET = 0.02
POOL_SEED = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], FloatModel]
    pool: int           # labeled inputs, calibration set first
    n_calib: int        # quantize calibration set (fixed)
    n_eval: int         # sim / oracle / compare batch
    n_pipeline: int     # samples streamed through the pipeline driver
    n_tune: int         # first n_tune calibration samples feed tune-sparsity
    round: dict         # command -> runs per round of the timed window; a
                        # fraction r runs it in every (1/r)-th round, from round 0
    why: str


def make_cnn28(seed: int = 28) -> FloatModel:
    """1x28x28 CNN: conv 1->16, pool 2, conv 16->32, pool 2, fc 1568->10."""
    rng = np.random.default_rng(seed)

    def conv(name, src, c_in, c_out, a):
        return LayerDesc(
            name=name, kind="conv2d",
            attrs={"in_channels": c_in, "out_channels": c_out,
                   "kernel": [3, 3], "stride": 1, "padding": 1},
            inputs=[src],
            weights=rng.uniform(-a, a, size=(c_out, c_in, 3, 3)).astype(np.float32),
            bias=rng.uniform(-0.1, 0.1, size=c_out).astype(np.float32))

    def pool(name, src):
        return LayerDesc(name=name, kind="avgpool2d",
                         attrs={"kernel": [2, 2], "stride": 2}, inputs=[src])

    model = FloatModel(name="cnn28", input_shape=(1, 28, 28), layers=[
        conv("conv1", "input", 1, 16, 0.45),
        pool("pool1", "conv1"),
        conv("conv2", "pool1", 16, 32, 0.12),
        pool("pool2", "conv2"),
        LayerDesc(name="flat", kind="flatten", attrs={}, inputs=["pool2"]),
        LayerDesc(name="fc", kind="fully-connected",
                  attrs={"in_features": 1568, "out_features": 10}, inputs=["flat"],
                  weights=rng.uniform(-0.06, 0.06, size=(10, 1568)).astype(np.float32),
                  bias=rng.uniform(-0.1, 0.1, size=10).astype(np.float32)),
    ])
    infer_shapes(model)
    return model


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "cnn28", make_cnn28, pool=256, n_calib=32, n_eval=32, n_pipeline=4, n_tune=1,
            round={"quantize": 0.5, "sim": 1, "pipeline": 4, "oracle": 2, "tune": 0.5},
            why="28x28 CNN at batch 32: the conv2 gather temporary dominates "
                "sim time and peak RSS, calibration dominates set-up"),
        Workload(
            "deep-mlp", lambda: fixtures.make_deep_mlp(depth=8, width=64), pool=4000,
            n_calib=200, n_eval=2000, n_pipeline=200, n_tune=200,
            round={"quantize": 2, "sim": 1, "pipeline": 2, "oracle": 1, "tune": 0.25},
            why="8 dense stages, no gather table: per-call overhead in the "
                "pipeline driver and 134 full re-runs in the tuner"),
        Workload(
            "residual", fixtures.make_residual, pool=4000,
            n_calib=200, n_eval=2000, n_pipeline=200, n_tune=200,
            round={"quantize": 2, "sim": 1, "pipeline": 4, "oracle": 1, "tune": 0.5},
            why="small convs at a large batch plus the residual join and "
                "shortcut buffering: the small-layer side of any kernel choice"),
    )
}


@dataclass(frozen=True)
class WorkloadFiles:
    model: Path       # float model manifest
    calib: Path
    tune: Path
    eval: Path
    pipeline: Path


def write_inputs(wl: Workload, seed: int, root: Path) -> WorkloadFiles:
    """Float model plus the seed's datasets, saved where the CLI reads them."""
    model = wl.build()
    pool = fixtures.labeled_dataset(model, wl.pool, POOL_SEED)
    calib = np.arange(wl.n_calib)
    ev = wl.n_calib + np.random.default_rng(seed).permutation(wl.pool - wl.n_calib)[:wl.n_eval]
    x, y = pool.inputs, pool.labels
    files = WorkloadFiles(model=root / "model.json", calib=root / "calib.ds",
                          tune=root / "tune.ds", eval=root / "eval.ds",
                          pipeline=root / "pipeline.ds")
    save_model(model, files.model)
    save_dataset(files.calib, x[calib], y[calib])
    save_dataset(files.tune, x[calib[:wl.n_tune]], y[calib[:wl.n_tune]])
    save_dataset(files.eval, x[ev], y[ev])
    save_dataset(files.pipeline, x[ev[:wl.n_pipeline]], y[ev[:wl.n_pipeline]])
    return files
