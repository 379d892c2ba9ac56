"""Mutation check of the test suite: every mutant must make its tests fail.

Each row of MUTANTS names a file under ``src/stemc``, an old text that must
occur in it exactly once, the new text that replaces it, why the change is a
fault, and the test ids that must catch it. For each row the script copies
``src/`` into a temporary directory, applies the mutant to the copy, and runs
pytest on the row's test ids with the copy first on PYTHONPATH. Pytest
exiting 1 (tests failed) kills the mutant. Exit 0 means it survived, and any
other exit (2-5: an interrupted run, an internal or usage error, no tests
collected) is an error, not a kill. The checkout's own ``src/`` is never
written.

    python3 tests/mutants.py                        # every mutant
    python3 tests/mutants.py apply-rounds-half-up   # the named ones

Run from anywhere; pytest runs from the root of the checkout. Exits 0 when
every selected mutant is killed, 1 otherwise (a survivor, an error, or an
old text that no longer occurs exactly once), 2 on an unknown mutant name.
The file has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str                   # under src/stemc
    old: str                    # occurs exactly once in the file
    new: str
    why: str
    tests: tuple[str, ...]      # pytest ids, relative to the checkout root


MUTANTS = [
    Mutant(
        "dedup-without-drlo", "sparsity.py",
        old="""\
                same = trains.setdefault(hash(values.tobytes()), [])
                if any(np.array_equal(values, cache.emitted(name, s)) for s in same):
""",
        new="""\
                key = cache.emitted(name, LayerSparsity(rb, 0))
                same = trains.setdefault(hash(key.tobytes()), [])
                if any(np.array_equal(key, cache.emitted(name, LayerSparsity(s.rot_bits, 0)))
                       for s in same):
""",
        why="the tuner takes a candidate for a copy of an earlier one from its rot "
            "alone, so it never scores a drlo cut",
        tests=("tests/test_sparsity.py::TestTunerReference::test_matches_full_rerun",)),
    Mutant(
        "floor-reads-cached-counts", "netsim.py",
        old="counts = {**self.counts, name: _spike_counts(values, self.snet.k)}",
        new="counts = self.counts",
        why="the SOP floor counts the direct consumers' branches from the tuned "
            "layer on its cached train, not the candidate's, so it can exceed the "
            "rerun's SOPs and let the tuner skip a candidate that could win",
        tests=("tests/test_sparsity.py::TestSopsFloor::test_floor_never_exceeds_rerun_sops",)),
    Mutant(
        "floor-fixes-two-hops-down", "netsim.py",
        old="if below.intersection(q.inputs):",
        new="if name in q.inputs:",
        why="the SOP floor takes only the tuned layer's direct consumers as "
            "downstream, so it keeps the cached SOPs of a population two hops "
            "down, which the rerun changes",
        tests=("tests/test_sparsity.py::TestSopsFloor::test_floor_never_exceeds_rerun_sops",)),
    Mutant(
        "rerun-keeps-stale-trace", "netsim.py",
        old="if p not in changed}",
        new="if p not in changed - {name}}",
        why="a rerun carries over the trace of the population it re-emits, whose "
            "spike counts it has just changed",
        tests=("tests/test_netsim.py::TestCachedRun::test_rerun_and_adopt_match_run_batch",)),
    Mutant(
        "flatten-of-input-unsigned", "modelio.py",
        old="signed[lyr.inputs[0]] if lyr.kind == \"flatten\"",
        new="(lyr.inputs[0] != INPUT_NAME and signed[lyr.inputs[0]]) if lyr.kind == \"flatten\"",
        why="a flatten view of the signed network input is marked unsigned, so the "
            "layer reading it loses the sign weight of step 0",
        tests=("tests/test_netsim.py::TestFlattenedInput",)),
    Mutant(
        "apply-rounds-half-up", "fixedpoint.py",
        old="            p -= p < 0",
        new="            pass",
        why="the array path of fixedpoint.apply rounds a negative half up, not away "
            "from zero; both engines share it, so compare cannot see it",
        tests=("tests/test_acceptance.py::test_criterion_9_fixed_point_oracle",)),
    Mutant(
        "float-window-keeps-last-min", "refengine.py",
        old="(min(seen[0], lo), max(seen[1], hi))",
        new="(lo, max(seen[1], hi))",
        why="the float pass keeps each layer's min from the last window only, so "
            "calibration sees a range narrower than the batch's",
        tests=("tests/test_refengine.py::TestFloatPass"
               "::test_windows_equal_reference_per_window",)),
    Mutant(
        "float-window-drops-partial", "refengine.py",
        old="for a in range(0, n, size):",
        new="for a in range(0, n - n % size, size):",
        why="the float pass skips a trailing window shorter than the others, so those "
            "samples get no output and no part in the ranges",
        tests=("tests/test_refengine.py::TestFloatPass"
               "::test_windows_equal_reference_per_window",)),
    Mutant(
        "drlo-cuts-one-bit-fewer", "sparsity.py",
        old="mask = ~((1 << cut_bits) - 1)",
        new="mask = ~((1 << max(cut_bits - 1, 0)) - 1)",
        why="drlo zeroes one low bit fewer than asked; both engines share it",
        tests=("tests/test_acceptance.py::test_criterion_3_spike_thinning_example",)),
    Mutant(
        "fc-fanout-above-100", "netsim.py",
        old="fanouts = [np.full(fanin, n_out, dtype=np.int64)]",
        new="fanouts = [np.full(fanin, n_out + (n_out > 100), dtype=np.int64)]",
        why="a fully-connected layer with more than 100 outputs counts one synapse "
            "too many per input, so its SOPs are overstated",
        tests=("tests/test_metrics.py::TestFanout::test_fc_full_fanout[1568-128]",)),
    Mutant(
        "block-apply-misses-step-weights", "netsim.py",
        old="pop.phi[steps.start:steps.stop, None, None] * sums",
        new="pop.phi[:len(steps), None, None] * sums",
        why="a population without an M0 table weights its block's step sums by the "
            "first steps' weights, not its live steps'",
        tests=("tests/test_netsim.py::TestIntegrateBlock",
               "tests/test_netsim.py::TestM0Table")),
    Mutant(
        "live-steps-skip-one", "netsim.py",
        old="return range(1, max(1, snet.k - cut))",
        new="return range(1, max(1, snet.k - cut - 1))",
        why="a population reading hidden wires skips the last step that can spike",
        tests=("tests/test_netsim.py::TestLiveSteps",)),
    Mutant(
        "emit-skips-drlo-only", "netsim.py",
        old="if not (self.signed or setting.is_identity()):",
        new="if not (self.signed or setting.rot_bits == 0):",
        why="a hidden population whose setting only cuts (rot 0, drlo > 0) emits its "
            "uncut values",
        tests=("tests/test_netsim.py::TestLiveSteps"
               "::test_cached_run_equals_every_step_reference",)),
]


def table_faults(mutants: list[Mutant]) -> list[str]:
    """Every row whose old text does not occur exactly once in its file, or
    whose name repeats an earlier row's."""
    faults, names = [], set()
    for m in mutants:
        if m.name in names:
            faults.append(f"{m.name}: name used twice")
        names.add(m.name)
        count = (SRC / "stemc" / m.file).read_text().count(m.old)
        if count != 1:
            faults.append(f"{m.name}: old text occurs {count} times in {m.file}, not once")
    return faults


def pytest_exit(src: Path, ids: list[str] | tuple[str, ...], *flags: str) -> int:
    """pytest's exit status on `ids`, run from the checkout root with the
    stemc package under `src` first on PYTHONPATH."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    where = subprocess.run([sys.executable, "-c", "import stemc; print(stemc.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True)
    if not where.stdout.strip().startswith(str(src)):
        raise RuntimeError(f"stemc imports from {where.stdout.strip() or where.stderr.strip()}")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags, *ids],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def verdict(m: Mutant) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="stemc-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "stemc" / m.file
        path.write_text(path.read_text().replace(m.old, m.new))
        try:
            rc = pytest_exit(src, m.tests, "-x")
        except RuntimeError as exc:
            return f"error: {exc}"
    return {0: "survived", 1: "killed"}.get(rc, f"error: pytest exited {rc}")


def main(argv: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(known)}")
        return 2
    faults = table_faults(MUTANTS)
    for fault in faults:
        print(fault)
    if faults:
        return 1
    selected = [known[name] for name in argv] or MUTANTS
    # a kill means something only if the named tests pass on the checkout
    ids = list(dict.fromkeys(t for m in selected for t in m.tests))
    rc = pytest_exit(SRC, ids)
    if rc != 0:
        print(f"the named tests fail without a mutant (pytest exited {rc})")
        return 1
    failed = 0
    for m in selected:
        start = time.perf_counter()
        result = verdict(m)
        failed += result != "killed"
        print(f"{result:9} {m.name} ({m.file}, {time.perf_counter() - start:.1f} s): {m.why}")
    print(f"{len(selected) - failed} of {len(selected)} mutants killed")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
