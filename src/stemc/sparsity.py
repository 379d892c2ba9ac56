"""Spike-count reduction on emitted trains.

Two knobs per hidden layer, both operating on the value V about to be
emitted:

* rot(V, drop_bits): round V off at `drop_bits` low bits (half away from
  zero), clamped back into the emittable range. 83 with 2 dropped bits
  becomes 84: the low "11" rounds up into "100".
* drlo(V, cut_bits): zero the lowest `cut_bits` bit positions outright, i.e.
  suppress the final `cut_bits` emission steps. 84 with 3 cut bits becomes 80.

Together (RoT first, then the cut during emission) 83 -> 84 -> 80, and its
train thins from 4 spikes to 2.

The hybrid tuner walks layers front to back; per layer it scores each
(rot, drlo) candidate on a calibration set by its synaptic operations and
accuracy, and keeps the most-saving setting whose cumulative accuracy drop
stays within the budget. A candidate is scored by re-running only the layers
downstream of the tuned layer, from the cached run of the accepted plan:
nothing upstream of it can change. Each distinct candidate train is rerun at
most once, and only while a floor on its SOPs, counted from its own spikes
(``netsim.CachedRun.sops_floor``), leaves it a chance to beat the best
candidate so far; a rerun rebuilds only the traces it changes. Entirely
deterministic: ties break on the smaller (rot, drlo) pair.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger("stemc")

ROT_CANDIDATES = range(0, 4)     # drop_bits
DRLO_CANDIDATES = range(0, 5)    # cut_bits


def rot(v: int | np.ndarray, drop_bits: int, k: int) -> int | np.ndarray:
    """Round-off truncation of a non-negative value; result clamped to
    [0, 2^(k-1)-1]."""
    if drop_bits < 0:
        raise ValueError("drop_bits must be >= 0")
    arr = np.asarray(v)
    if arr.size and int(arr.min()) < 0:
        raise ValueError("rot is defined for non-negative values")
    if drop_bits == 0:
        out = np.minimum(arr, (1 << (k - 1)) - 1)
    else:
        half = 1 << (drop_bits - 1)
        out = ((arr + half) >> drop_bits) << drop_bits    # v >= 0: half rounds up
        out = np.minimum(out, (1 << (k - 1)) - 1)
    return int(out) if np.isscalar(v) or np.asarray(v).ndim == 0 else out


def drlo(v: int | np.ndarray, cut_bits: int) -> int | np.ndarray:
    """Zero bit positions below cut_bits."""
    if cut_bits < 0:
        raise ValueError("cut_bits must be >= 0")
    mask = ~((1 << cut_bits) - 1)
    out = np.asarray(v) & mask
    return int(out) if np.isscalar(v) or np.asarray(v).ndim == 0 else out


@dataclass(frozen=True)
class LayerSparsity:
    rot_bits: int = 0
    drlo_bits: int = 0

    def is_identity(self) -> bool:
        return self.rot_bits == 0 and self.drlo_bits == 0


@dataclass
class SparsityPlan:
    """Per-hidden-layer (rot, drlo) settings; absent layers run unmodified."""

    entries: dict[str, LayerSparsity] = field(default_factory=dict)

    @staticmethod
    def identity() -> "SparsityPlan":
        return SparsityPlan({})

    @staticmethod
    def from_manifest(rows: list[dict]) -> "SparsityPlan":
        return SparsityPlan({
            r["layer"]: LayerSparsity(int(r.get("rot", 0)), int(r.get("drlo", 0)))
            for r in rows
        })

    def to_manifest(self) -> list[dict]:
        return [
            {"layer": name, "rot": s.rot_bits, "drlo": s.drlo_bits}
            for name, s in sorted(self.entries.items())
            if not s.is_identity()
        ]

    def for_layer(self, name: str) -> LayerSparsity:
        return self.entries.get(name, LayerSparsity())

    def replaced(self, name: str, setting: LayerSparsity) -> "SparsityPlan":
        new = dict(self.entries)
        new[name] = setting
        return SparsityPlan(new)


@dataclass
class TuneStep:
    layer: str
    chosen: LayerSparsity
    sops: int
    accuracy: float


@dataclass
class TuneResult:
    plan: SparsityPlan
    baseline_sops: int
    baseline_accuracy: float
    final_sops: int
    final_accuracy: float
    steps: list[TuneStep] = field(default_factory=list)


def tune_hybrid(qnet, inputs_int: np.ndarray, labels: np.ndarray,
                accuracy_budget: float, include_io: bool = False) -> TuneResult:
    """Greedy front-to-back joint RoT+DRLO search under an accuracy budget.

    Args:
        qnet: quantized network (the plan applies to its hidden layers).
        inputs_int: quantized calibration inputs [N, *input_shape].
        labels: int class labels [N].
        accuracy_budget: max tolerated accuracy drop vs the unsparsified run
            (fraction of samples in [0, 1], e.g. 0.015).
        include_io: count first/last layer synaptic ops as well.

    The network runs once in full, into a ``netsim.CachedRun`` of the
    accepted plan. A candidate at layer l is measured by re-emitting l's
    values under the candidate and re-running only the layers downstream of
    l; upstream values and SOP counts come from the cache. l's cached
    values are its exact V because l has not been tuned yet, so it ran
    under the identity setting. The winning candidate's rerun becomes the
    cache for the next layer, and no more than two reruns are held at a time.

    The winner is the feasible candidate first in (SOPs, rot, drlo). A
    candidate whose values equal an earlier candidate's (the identity's
    included) is dropped: identical trains run identically downstream (a
    larger drlo only leaves out steps that are silent in both), so it scores
    the same and loses the tie on its larger (rot, drlo). Each other
    candidate gets a floor, ``CachedRun.sops_floor``: no more SOPs than its
    rerun will count. The identity needs no rerun and is always feasible, so
    it is the first best. The candidates are then visited in ascending
    (floor, rot, drlo), and one is rerun only while its (floor, rot, drlo)
    does not exceed the best feasible (SOPs, rot, drlo) so far. Since its
    SOPs are at least its floor, a candidate past that point cannot win, nor
    can any after it, so skipping them changes no plan. Only the floors and
    settings are held; a candidate's values are emitted again when it is
    rerun. A rerun rebuilds only the traces it changes.

    Returns a TuneResult; the plan never degrades accuracy beyond the budget
    on the calibration inputs and falls back to identity per layer when every
    candidate overshoots.
    """
    if not 0.0 <= accuracy_budget <= 1.0:          # also rejects nan
        raise ValueError(f"accuracy budget {accuracy_budget!r} is not a fraction in [0, 1]")
    from . import netsim   # local import: netsim depends on this module
    from .metrics import io_layer_names, sop_total

    def score(run) -> tuple[int, float]:
        preds = np.argmax(run.outputs, axis=-1)
        acc = float(np.mean(preds == labels))
        return sop_total(run.layer_traces, qnet, include_io=include_io), acc

    cache = netsim.CachedRun(
        netsim.compile_network(qnet, plan=SparsityPlan.identity()), inputs_int)
    counted = {p.name for p in cache.snet.populations} - (
        set() if include_io else io_layer_names(qnet))
    base_sops, base_acc = score(cache)
    cur_sops, cur_acc = base_sops, base_acc
    steps: list[TuneStep] = []
    for name in qnet.hidden_layers:
        # one floor per distinct train other than the identity's
        floors: list[tuple[int, int, int]] = []          # (floor, rot, drlo)
        trains: dict[int, list[LayerSparsity]] = {}      # hash -> settings emitting it
        for rb in ROT_CANDIDATES:
            for db in DRLO_CANDIDATES:
                setting = LayerSparsity(rb, db)
                values = cache.emitted(name, setting)
                same = trains.setdefault(hash(values.tobytes()), [])
                if any(np.array_equal(values, cache.emitted(name, s)) for s in same):
                    continue                # an earlier candidate's train
                same.append(setting)
                if not setting.is_identity():
                    floors.append((cache.sops_floor(name, values, counted), rb, db))
        # Keep the feasible candidate first in (SOPs, rot, drlo). The identity
        # is feasible and needs no rerun; a candidate whose (floor, rot, drlo)
        # exceeds the best key so far cannot win, nor can any after it.
        best_key, best = (cur_sops, 0, 0), (LayerSparsity(), None, cur_acc)
        for floor, rb, db in sorted(floors):
            if (floor, rb, db) > best_key:
                break
            setting = LayerSparsity(rb, db)
            run = cache.rerun(name, setting)
            sops, acc = score(run)
            if base_acc - acc <= accuracy_budget and (sops, rb, db) < best_key:
                best_key, best = (sops, rb, db), (setting, run, acc)
        cur_sops = best_key[0]
        setting, run, cur_acc = best
        if run is not None:
            cache = run
        steps.append(TuneStep(name, setting, cur_sops, cur_acc))
    plan = cache.snet.plan
    log.info("tuned plan %s: sops %d -> %d, accuracy %.4f -> %.4f",
             plan.to_manifest(), base_sops, cur_sops, base_acc, cur_acc)
    return TuneResult(plan, base_sops, base_acc, cur_sops, cur_acc, steps)
