"""Quick self-test of the benchmark at small sizes.

    python3 bench/selftest.py

For each workload it runs one small round in this process, shows that the
checks pass on the program's outputs, then that they reject deliberately
wrong outputs: an E moved by a few sigma, a closed C moved by 1e-6, a
flipped feasibility decision and a witness table with a negative entry.
It also runs two traced rounds per workload and shows that their counts
agree and that no traced layer is absent.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import copy
import itertools
import shutil
import sys

import numpy as np

import checks
import speed
import tracing
import workloads
import worker

OUT = worker.HERE / "out" / "selftest"
SEED = 7


def run_round(workload: str, tracer=None):
    out_dir = OUT / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    analysis, cli = worker.import_program()
    ops = workloads.plan(workload, SEED, workloads.SMALL)
    runner = worker.Runner(ops, out_dir, analysis, cli)
    if tracer is not None:
        tracer.install()
    try:
        _raw, _calibrated, raw = runner.round(speed.Clock(), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    _digest, plain = runner.digest(raw)
    outputs = plain["outputs"]
    for op in ops:
        if op.out is not None:
            outputs[op.name]["text"] = (out_dir / op.out).read_text()
    return ops, outputs


def set_field(text: str, column: str, value: float, row: int = 0) -> str:
    """``text`` with one CSV cell replaced (``row`` counts data rows)."""
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    header = lines[data[0]].split(",")
    cells = lines[data[1 + row]].split(",")
    cells[header.index(column)] = repr(value)
    lines[data[1 + row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def negative_witness(table) -> list:
    """``table`` moved along the null space of the feasibility system until
    one entry is -1e-3: sum, correlations and marginals stay the same."""
    atoms = list(itertools.product((0, 1), repeat=4))  # (1a, 1a', 2b, 2b')
    value = (-0.5, 0.5)
    rows = [[1.0] * 16]
    rows += [[value[a[i]] * value[a[j]] for a in atoms] for i, j in ((0, 2), (0, 3), (1, 2), (1, 3))]
    rows += [[float(a[k] == 1) for a in atoms] for k in range(4)]
    null = np.linalg.svd(np.array(rows))[2][-1]
    p = np.asarray(table, dtype=float)
    i = int(np.argmax(np.abs(null)))
    return (p + (-1e-3 - p[i]) / null[i] * null).tolist()


class SelfTest:
    def __init__(self):
        self.failures = 0

    def expect(self, what: str, ok: bool, detail="") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}{': ' + str(detail) if detail else ''}")
        self.failures += not ok

    def rejects(self, what: str, workload: str, ops, outputs) -> None:
        problems, _ = checks.CHECKS[workload](ops, outputs)
        self.expect(f"{workload} rejects {what}", bool(problems), problems[:1])

    def mc_pairs(self, ops, outputs) -> None:
        op = next(o for o in ops if o.name == "correlate_direct")
        d = checks.separation(op.info["theta_a"], op.info["theta_b"])
        sigma = checks.sigma_e("direct", d, op.info["trials"])
        moved = copy.deepcopy(outputs)
        moved[op.name]["text"] = set_field(
            moved[op.name]["text"], "e_hat", checks.expected_e("direct", d) + 5.5 * sigma
        )
        self.rejects("an E moved by 5.5 sigma", "mc_pairs", ops, moved)
        chsh = next(o for o in ops if o.name == "chsh_ensemble")
        moved = copy.deepcopy(outputs)
        moved[chsh.name]["text"] = set_field(moved[chsh.name]["text"], "violated", 0.0)
        self.rejects("a CHSH violation not flagged", "mc_pairs", ops, moved)

    def sweep_grid(self, ops, outputs) -> None:
        op = next(o for o in ops if o.name == "sweep_closed_ensemble")
        row = 37
        header, rows = checks.csv_rows(outputs[op.name]["text"])
        c = float(rows[row][header.index("c_value")])
        moved = copy.deepcopy(outputs)
        moved[op.name]["text"] = set_field(moved[op.name]["text"], "c_value", c + 1e-6, row)
        self.rejects("a closed C moved by 1e-6", "sweep_grid", ops, moved)
        moved = copy.deepcopy(outputs)
        text = moved[op.name]["text"]
        moved[op.name]["text"] = text[: text.rstrip("\n").rfind("\n") + 1]
        self.rejects("a missing row", "sweep_grid", ops, moved)

    def verify(self, ops, outputs) -> None:
        batch = next(o for o in ops if o.kind == "fine")
        moved = copy.deepcopy(outputs)
        feasible, table = moved[batch.name]["results"][0]
        moved[batch.name]["results"][0] = [not feasible, table]
        self.rejects("a flipped feasibility decision", "verify", ops, moved)
        i = next(i for i, (ok, _t) in enumerate(outputs[batch.name]["results"]) if ok)
        moved = copy.deepcopy(outputs)
        moved[batch.name]["results"][i][1] = negative_witness(moved[batch.name]["results"][i][1])
        problems, _ = checks.check_verify(ops, moved)
        self.expect(
            "verify rejects a witness table with a negative entry",
            any("negative entry" in p for p in problems),
            problems[:1],
        )
        moved = copy.deepcopy(outputs)
        moved["verify"]["stdout"] = moved["verify"]["stdout"].replace("[PASS]", "[FAIL]", 1)
        self.rejects("a failed verify check", "verify", ops, moved)

    def run(self) -> int:
        for workload in workloads.WORKLOADS:
            ops, outputs = run_round(workload)
            problems, failed = checks.CHECKS[workload](ops, outputs)
            self.expect(f"{workload} checks pass on the program's outputs", not problems, problems[:3])
            if workload == "verify":
                boundary = next(o for o in ops if o.kind == "fine").boundary
                self.expect(
                    "verify failures lie in the pushed boundary set",
                    0 <= failed <= len(boundary),
                    f"{failed} of {len(boundary)}",
                )
            getattr(self, workload)(ops, outputs)
            counts = []
            for _ in range(2):
                tracer = tracing.Tracer()
                run_round(workload, tracer)
                counts.append(tracer.counts)
                self.expect(f"{workload} traced layers are all present", not tracer.absent, tracer.absent)
            self.expect(f"{workload} traced counts repeat", counts[0] == counts[1])
        shutil.rmtree(OUT, ignore_errors=True)
        print("selftest " + ("passed" if not self.failures else f"FAILED ({self.failures})"))
        return 0 if not self.failures else 1


if __name__ == "__main__":
    sys.exit(SelfTest().run())
