"""Synaptic-operation and energy accounting.

A synaptic operation (SOP) is one weight fetched and accumulated because of
one incoming spike: each spike costs the number of synapses fanning out of
that input inside the receiving layer. Those fan-outs are counted by
``netsim.compile_network`` from the same tables its execution forms are built
from (``Population.fanouts``): a fully-connected input fans out to every
output neuron, a conv input pixel to (sliding windows covering it) x
out_channels, so edge pixels under padding cost less. SOP totals are
input-dependent; multiply-accumulate (MAC) counts of the quantized reference
are analytic and input-independent.

Energy uses the 45nm per-op figures of Horowitz, "Computing's energy problem"
(ISSCC 2014): a MAC costs 0.23 pJ, an 8-bit multiply (0.2 pJ) plus an 8-bit
add (0.03 pJ), and an accumulate-only op 0.03 pJ, an 8-bit add. Totals are
reported in microjoules. The spiking side wins exactly when
SOPs < (0.23/0.03) x MACs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAC_PJ = 0.23
AC_PJ = 0.03


@dataclass(frozen=True)
class EnergyEstimate:
    ann_uj: float
    sdann_uj: float

    @property
    def ratio(self) -> float:
        return self.sdann_uj / self.ann_uj if self.ann_uj else float("inf")


def energy_estimate(macs: int, sops: int) -> EnergyEstimate:
    """MACs at MAC_PJ, SOPs at AC_PJ, both converted pJ -> uJ."""
    return EnergyEstimate(ann_uj=macs * MAC_PJ * 1e-6, sdann_uj=sops * AC_PJ * 1e-6)


def count_sops(spike_counts: np.ndarray, fanout: np.ndarray) -> int:
    """Total synaptic ops: sum over inputs of spikes(input) * fanout(input)."""
    return int(np.asarray(spike_counts, dtype=np.int64) @ np.asarray(fanout, dtype=np.int64))


# ---------------------------------------------------------------------------
# MAC counting (analytic, input-independent)
# ---------------------------------------------------------------------------

def count_macs_layer(kind: str, attrs: dict, out_shape: tuple[int, ...]) -> int:
    if kind == "fully-connected":
        return int(attrs["in_features"]) * int(attrs["out_features"])
    if kind == "conv2d":
        kh, kw = attrs["kernel"]
        oc, oh, ow = out_shape
        return oh * ow * oc * kh * kw * int(attrs["in_channels"])
    return 0                # pool and residual layers add, they do not multiply


def count_macs(qnet) -> int:
    """MACs of one quantized-reference inference."""
    return sum(count_macs_layer(lyr.kind, lyr.attrs, lyr.out_shape) for lyr in qnet.layers)


def io_layer_names(qnet) -> set[str]:
    """The input-side and output-side layers excluded from SOP totals."""
    first = next(
        (l.name for l in qnet.layers if l.kind in ("fully-connected", "conv2d")),
        qnet.layers[0].name,
    )
    return {first, qnet.layers[-1].name}


def sop_total(traces, qnet, include_io: bool = False) -> int:
    excluded = set() if include_io else io_layer_names(qnet)
    return sum(t.sops for t in traces if t.name not in excluded)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def write_layer_csv(path: str | Path, traces) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["layer", "kind", "sops", "spikes_in", "spikes_out", "saturations"])
        for t in traces:
            w.writerow([t.name, t.kind, t.sops, t.spikes_in, t.spikes_out, t.saturations])


def write_summary(path: str | Path, summary: dict) -> None:
    """Stable JSON (sorted keys, no timestamps): byte-identical across runs.
    A non-finite value raises ValueError, since strict JSON has none."""
    Path(path).write_text(json.dumps(summary, indent=1, sort_keys=True, allow_nan=False) + "\n")


def consolidate(paths: list[str | Path], out_csv: str | Path) -> list[dict]:
    """Merge run summaries; add delta columns (% change vs the first run)."""
    runs = [json.loads(Path(p).read_text()) for p in paths]
    keys = ["total_sops", "total_macs", "sdann_uj", "ann_uj", "accuracy"]
    rows = []
    base = runs[0]
    for path, run in zip(paths, runs):
        p = Path(str(path))
        label = p.parent.name if p.stem == "summary" else p.stem
        row = {"run": label}
        for key in keys:
            row[key] = run.get(key)
            bv = base.get(key)
            if isinstance(bv, (int, float)) and bv and isinstance(row[key], (int, float)):
                row[f"{key}_pct"] = round(100.0 * (row[key] - bv) / bv, 4)
            else:
                row[f"{key}_pct"] = ""
        rows.append(row)
    fields = list(rows[0].keys())
    with open(out_csv, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)
    return rows
