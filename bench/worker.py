"""One workload in a fresh interpreter: run rounds, write what they produced.

Started by ``run.py`` as ``python3 bench/worker.py <workload> <seed>
<seconds> <trace> <out_dir>``.  It imports ``bellsphere`` from the
checkout's ``src``, runs whole rounds of the workload until ``seconds`` have
passed and, when ``trace`` is 1, one more round with the per-layer tracing
installed.  The timed region of a round holds only the program's
operations; digests, the peak memory and the results file are taken
outside it.  Nothing is checked here: ``run.py`` checks the outputs in
another process, so the checks are neither timed nor traced.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_program():
    sys.path.insert(0, str(SRC))
    from bellsphere import analysis, cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"bellsphere came from {cli.__file__}, not from {SRC}")
    return analysis, cli


class Runner:
    """Runs the operations of a round against the imported program."""

    def __init__(self, ops, out_dir: Path, analysis, cli):
        self.ops = ops
        self.out_dir = out_dir
        self.analysis = analysis
        self.cli = cli

    def run_op(self, op):
        """Run one operation; returns (exit code, captured stdout, fine results)."""
        if op.kind == "fine":
            fine = self.analysis.fine_feasible  # looked up per batch, so tracing sees it
            return 0, "", [fine(e, [0.5] * 8) for e in op.vectors]
        argv = list(op.argv)
        if op.out is not None:
            argv += ["--out", str(self.out_dir / op.out)]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            rc = self.cli.main(argv)
        return rc, captured.getvalue(), None

    def round(self, clock, tracer=None):
        """One round; returns (raw seconds, calibrated seconds, outputs), the
        times per operation."""
        run_op = {op.name: self.run_op for op in self.ops}
        if tracer is not None:
            run_op = {name: tracer.wrap_root(name, fn) for name, fn in run_op.items()}
        raw, calibrated, outputs = [], [], []
        for op in self.ops:
            output, raw_s, calibrated_s = clock.time(run_op[op.name], op)
            outputs.append(output)
            raw.append(raw_s)
            calibrated.append(calibrated_s)
        return raw, calibrated, outputs

    def digest(self, raw) -> tuple[str, dict]:
        """A digest of a round's outputs (file timestamps left out) and the
        outputs in plain form."""
        h = hashlib.sha256()
        outputs = {}
        rows = size = 0
        for op, (rc, stdout, results) in zip(self.ops, raw):
            entry = {"rc": rc, "stdout": stdout}
            h.update(f"{op.name}\0{rc}\0{stdout}\0".encode())
            size += len(stdout.encode())
            if op.out is not None:
                data = (self.out_dir / op.out).read_bytes()
                size += len(data)
                lines = [line for line in data.splitlines() if not line.startswith(b"#")]
                rows += max(len(lines) - 1, 0)  # less the header
                h.update(b"\n".join(lines))
            if results is not None:
                entry["results"] = [
                    [bool(ok), None if table is None else table.probs.ravel().tolist()]
                    for ok, table in results
                ]
                h.update(json.dumps(entry["results"]).encode())
            outputs[op.name] = entry
        return h.hexdigest(), {"outputs": outputs, "rows_out": rows, "bytes_out": size}


def main(argv=None) -> int:
    workload, seed, seconds, trace, out_dir = (argv or sys.argv[1:])[:5]
    seed, seconds, trace, out_dir = int(seed), float(seconds), trace == "1", Path(out_dir)
    import workloads

    t0 = time.perf_counter()
    analysis, cli = import_program()
    import_s = time.perf_counter() - t0
    ops = workloads.plan(workload, seed)
    runner = Runner(ops, out_dir, analysis, cli)

    clock = speed.Clock()
    raw_s, calibrated_s, digests = [], [], []
    started = time.perf_counter()
    while not raw_s or time.perf_counter() - started < seconds:
        gc.collect()
        raw, calibrated, outputs = runner.round(clock)
        raw_s.append(raw)
        calibrated_s.append(calibrated)
        digest, plain = runner.digest(outputs)
        digests.append(digest)
        del outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    round_s = [sum(times) for times in calibrated_s]
    result = {
        "workload": workload,
        "seed": seed,
        "import_s": import_s,
        "rounds": len(round_s),
        "round_s": round_s,
        "op_names": [op.name for op in ops],
        "op_s": calibrated_s,
        "op_raw_s": raw_s,
        "kernel_s": clock.samples,
        "peak_rss_mb": peak_rss_mb,
        "rows_out": plain["rows_out"],
        "bytes_out": plain["bytes_out"],
    }

    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        gc.collect()
        try:
            _raw, calibrated, outputs = runner.round(clock, tracer)
        finally:
            tracer.uninstall()
        wall = sum(calibrated)
        digest, plain = runner.digest(outputs)
        digests.append(digest)
        del outputs
        untraced = statistics.median(round_s)
        metrics = tracer.metrics({
            "cli.rows_out": plain["rows_out"],
            "cli.bytes_out": plain["bytes_out"],
            "trace.overhead_s": wall - untraced,
        })
        spans = tracer.arrays()
        with open(out_dir / "trace_spans.npz", "wb") as fh:
            np.savez(fh, names=np.array(tracer.names), **spans)
        summary = {
            "traced_wall_s": wall,
            "untraced_wall_s": untraced,
            "spans": len(spans["start"]),
            "absent": tracer.absent,
            "metrics": metrics,
            "per_op": tracer.per_root(spans),
        }
        (out_dir / "trace_summary.json").write_text(json.dumps(summary, indent=1))
        result["trace_metrics"] = metrics
        result["trace_absent"] = tracer.absent

    result["consistent"] = len(set(digests)) == 1
    result["outputs"] = plain["outputs"]
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
