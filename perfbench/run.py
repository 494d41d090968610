"""pstab benchmark: classify -> certify -> verify over a seeded matrix corpus.

    python3 perfbench/run.py --workload classical --seed 1 --seconds 20 --trace 0

Run from the root of a pstab checkout; pstab is imported from ./src.  One
run sets up (imports pstab in a fresh interpreter, then generates and
writes the corpus) five times, then repeats whole rounds until
``--seconds`` have passed.  A round is one pass over the corpus in this
process through pstab's own entry point ``pstab.cli.main``: ``classify
--json`` and ``certify --json`` on every matrix, and ``verify`` on every
certificate.  After the timed rounds every output is checked with the
benchmark's own exact arithmetic (see checker.py), and every certificate
is verified once more with one exact value changed, which must fail.

Timings are rescaled to a fixed machine speed (refclock.py): the
reference kernel runs between operations, and each operation's seconds
are multiplied by REFERENCE_SECONDS over the mean time of the two kernel
runs around it; the import in a set-up is rescaled the same way inside
its interpreter.  The raw seconds are printed and kept in the results
file too.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
untraced rounds alternate with rounds traced by spans around pstab's
public functions (tracer.py); the per-layer metrics and the tracing
overhead are reported, and the spans are written to perfbench/results/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
An operation fails when pstab gives up on a valid input (exit 2 or 3, or
an exception); an output that is wrong makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import selftest  # noqa: E402
from refclock import reference_seconds, rescaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
# Runs in a fresh interpreter: the kernel before and after importing pstab,
# so that the import is rescaled on the core it ran on.
IMPORT_PROBE = (
    "import time, refclock; r = refclock.reference_seconds(); "
    "t = time.perf_counter(); import pstab.cli; s = time.perf_counter() - t; "
    "print(s, (r + refclock.reference_seconds()) / 2)"
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def format_matrix(rows):
    return f"{len(rows)}\n" + "".join(" ".join(str(x) for x in row) + "\n" for row in rows)


def import_seconds():
    """Seconds to import pstab.cli in a fresh interpreter, and the mean
    reference kernel time around the import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"pstab does not import from {SRC}: {proc.stderr.strip()[-300:]}")
    seconds, reference = proc.stdout.split()
    return float(seconds), float(reference)


def write_corpus(workload, seed, workdir):
    """Generate the workload's corpus and write one matrix file per input."""
    entries = WORKLOADS[workload](random.Random(seed))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = []
    for i, (label, rows, truth) in enumerate(entries):
        path = workdir / f"m{i:02d}-{label}.txt"
        path.write_text(format_matrix(rows), encoding="utf-8")
        inputs.append({"label": label, "rows": rows, "truth": truth, "path": str(path)})
    return inputs


def call(cli, argv):
    """One pstab command: (exit code, seconds, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, reported below
        rc = "crash:" + traceback.format_exc(limit=3)
    return rc, time.perf_counter() - start, out.getvalue()


def run_round(inputs, workdir, number, ops, tracer=None):
    """One pass over the corpus; appends one record per operation, with
    the mean time of the reference kernel runs before and after it."""
    cli = sys.modules["pstab.cli"]
    before = reference_seconds()
    for idx, item in enumerate(inputs):
        cert = str(workdir / f"cert-r{number}-{idx:02d}.json")
        steps = [("classify", [item["path"], "--json"]), ("certify", [item["path"], "--json", cert])]
        while steps:
            kind, args = steps.pop(0)
            if tracer is not None:
                tracer.current_op = len(ops)
            rc, seconds, stdout = call(cli, [kind] + args)
            after = reference_seconds()
            ops.append({"kind": kind, "input": idx, "rc": rc, "s": seconds,
                        "ref": (before + after) / 2, "out": stdout,
                        "cert": cert if kind != "classify" else None, "round": number})
            before = after
            if kind == "certify" and rc == 0:
                steps.append(("verify", [cert, item["path"]]))


def timed_rounds(inputs, workdir, seconds, ops):
    """Whole rounds until ``seconds`` have passed; returns the round numbers."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(len(rounds))
        run_round(inputs, workdir, rounds[-1], ops)
    return rounds


def traced_rounds(inputs, workdir, seconds, ops):
    """Untraced and traced rounds in turn, whole pairs until ``seconds``
    have passed, so that drift and warm-up fall on both alike.  Returns
    the untraced and the traced round numbers and the tracer."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(len(plain) + len(traced))
        run_round(inputs, workdir, plain[-1], ops)
        traced.append(len(plain) + len(traced))
        tracer.install()
        try:
            run_round(inputs, workdir, traced[-1], ops, tracer)
        finally:
            tracer.uninstall()
    return plain, traced, tracer


def round_seconds(ops, rounds, scale=True):
    """Seconds of each round: the sum of its operations, rescaled or raw."""
    return [
        sum(rescaled(op["s"], op["ref"]) if scale else op["s"] for op in ops if op["round"] == r)
        for r in rounds
    ]


def check_outputs(inputs, ops):
    """Check every distinct output once; returns (problems, certificate docs by op)."""
    cli = sys.modules["pstab.cli"]
    problems = []
    seen = {}
    docs = {}
    cert_ok = {}
    for n, op in enumerate(ops):
        item = inputs[op["input"]]
        truth = item["truth"]
        if op["kind"] == "certify" and op["rc"] == 0:
            text = Path(op["cert"]).read_text(encoding="utf-8")
            docs[n] = json.loads(text)
            key = ("certify", op["input"], text)
        else:
            key = (op["kind"], op["input"], op["rc"], op["out"])
        if key in seen:
            if op["kind"] == "certify" and op["rc"] == 0:
                cert_ok[op["cert"]] = seen[key]
            continue
        found = []
        if failed(op):
            pass  # counted apart
        elif op["kind"] == "classify":
            found = checker.check_classify(truth, op["rc"], op["out"])
        elif op["kind"] == "certify" and op["rc"] == 1:
            found = checker.check_refutation(truth, op["out"])
        elif op["kind"] == "certify":
            found = checker.check_certificate(truth, docs[n])
            if not found:
                found = tamper_check(cli, docs[n], item, op)
            cert_ok[op["cert"]] = not found
        elif op["kind"] == "verify":
            if op["rc"] != 0 and cert_ok.get(op["cert"]):
                found = [f"verify exit {op['rc']} on a certificate the checker accepts"]
        seen[key] = not found
        problems.extend(f"{item['label']} #{op['input']} {op['kind']}: {p}" for p in found)
    return problems, docs


def tamper_check(cli, doc, item, op):
    bad, where = checker.tamper(doc, pick=op["input"] * 7919 + len(doc["trace_ledger"]))
    path = Path(op["cert"]).with_suffix(".tampered.json")
    path.write_text(json.dumps(bad), encoding="utf-8")
    rc, _, _ = call(cli, ["verify", str(path), item["path"]])
    if rc != 1:
        return [f"verify exit {rc} on a certificate with {where} changed"]
    return []


def failed(op):
    return isinstance(op["rc"], str) or op["rc"] not in (0, 1)


def end_to_end(setup_samples, rounds, ops, docs, scale=True):
    """Medians over the run's set-ups and rounds; means over its calls and
    certificates.

    The corpus mixes matrix sizes, so a median over calls or certificates
    would jump between size groups from seed to seed; the mean does not.
    """
    def mean_call(kind):
        return statistics.fmean(
            rescaled(op["s"], op["ref"]) if scale else op["s"] for op in ops if op["kind"] == kind
        )

    return {
        "setup_s": (statistics.median(s[scale] for s in setup_samples), "s"),
        "pipeline_s": (statistics.median(round_seconds(ops, rounds, scale)), "s"),
        "classify_s": (mean_call("classify"), "s"),
        "certify_s": (mean_call("certify"), "s"),
        "verify_s": (mean_call("verify"), "s"),
        "cert_kib": (statistics.fmean(os.path.getsize(ops[n]["cert"]) / 1024 for n in docs), "KiB"),
        "cert_bits": (statistics.fmean(checker.cert_bits(d) for d in docs.values()), "bits"),
    }


PER_LAYER = {
    "exactmat": ["det.calls", "det.s", "inverse.calls", "principal_minor_sums.calls",
                 "principal_minor_sums.s"],
    "compound": ["compound.calls", "compound.s", "compound_block.s",
                 "diag_generalized_compound.calls", "diag_generalized_compound.s"],
    "classify": ["classify_full.s", "is_p.s", "is_q2.calls", "is_q2.s",
                 "is_sign_symmetric.s", "is_square_diag_dominant.s"],
    "nests": ["find_q2_nest.s", "verify_nest.calls", "verify_nest.s"],
    "stabilize": ["build_B.s", "block_traces.s", "build_stabilizer.s",
                  "homotopy_certificate.s", "hurwitz_minors.calls", "hurwitz_minors.s"],
    "spectra": ["eigenvalues.s"],
    "cli": ["parse_matrix.s", "certificate_document.s", "verify_document.s"],
}


def per_layer(tracer, traced, ops, docs, overhead):
    """Per-layer metrics of the traced rounds, per round."""
    rounds = len(traced)
    calls, inclusive, self_s, op_sets = tracer.summary()
    out = {}
    for layer, names in PER_LAYER.items():
        for name in names:
            func, what = name.rsplit(".", 1)
            key = f"{layer}.{func}"
            if what == "calls":
                out[f"{layer}.{name}"] = (calls.get(key, 0) / rounds, "count")
            else:
                out[f"{layer}.{name}"] = (inclusive.get(key, 0.0) / rounds, "s")
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / rounds, "s")
    nest_ops = op_sets.get("nests.verify_nest", set())
    out["nests.verify_nest.calls_per_op"] = (
        calls.get("nests.verify_nest", 0) / len(nest_ops) if nest_ops else 0.0, "ratio")
    traced_docs = [d for n, d in docs.items() if ops[n]["round"] in traced]
    halvings = sum(sum(d["stabilizer"]["shrink_log"]) + d["stabilizer"]["identity_steps"]
                   for d in traced_docs)
    tried = sum(sum(d["stabilizer"]["shrink_log"]) + d["stabilizer"]["identity_steps"]
                + d["input"]["n"] for d in traced_docs)
    out["stabilize.halvings"] = (halvings / rounds, "count")
    out["stabilize.accept_ratio"] = (len(traced_docs) / tried if tried else 0.0, "ratio")
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pstab" / "__init__.py").is_file():
        fail(f"no pstab sources under {SRC}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "work" / f"{tag}-{os.getpid()}"
    results = HERE / "results"
    try:
        return _run(args, tag, workdir, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, tag, workdir, results):
    setup_samples = []  # (raw seconds, rescaled seconds)
    for _ in range(SETUP_REPEATS):
        imported, import_ref = import_seconds()
        before = reference_seconds()
        start = time.perf_counter()
        inputs = write_corpus(args.workload, args.seed, workdir)
        generated = time.perf_counter() - start
        generate_ref = (before + reference_seconds()) / 2
        setup_samples.append((
            imported + generated,
            rescaled(imported, import_ref) + rescaled(generated, generate_ref),
        ))

    sys.path.insert(0, str(SRC))
    import pstab.cli  # noqa: F401

    if not Path(sys.modules["pstab"].__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"pstab was imported from {sys.modules['pstab'].__file__}, not {SRC}")
    problems = selftest.run(sys.modules["pstab.cli"], workdir)

    ops = []
    if args.trace:
        rounds, traced, tracer = traced_rounds(inputs, workdir, args.seconds, ops)
    else:
        rounds = timed_rounds(inputs, workdir, args.seconds, ops)

    for item in inputs:
        if item["truth"] is None:
            item["truth"] = checker.Truth(item["rows"])
    found, docs = check_outputs(inputs, ops)
    problems.extend(found)

    raw = {}
    if args.trace:
        overhead = statistics.median(round_seconds(ops, traced)) - statistics.median(
            round_seconds(ops, rounds)
        )
        metrics = per_layer(tracer, traced, ops, docs, overhead)
        results.mkdir(exist_ok=True)
        tracer.write(results / f"spans-{tag}.jsonl.gz")
    else:
        metrics = end_to_end(setup_samples, rounds, ops, docs)
        raw = end_to_end(setup_samples, rounds, ops, docs, scale=False)

    attempted = len(ops)
    n_failed = sum(1 for op in ops if failed(op))
    for p in problems[:20]:
        print(f"PROBLEM: {p}")
    for op in ops:
        if failed(op):
            label = inputs[op["input"]]["label"]
            print(f"failed: {label} {op['kind']} exit {str(op['rc']).splitlines()[0]}")
    for name, (value, unit) in metrics.items():
        line = f"{name:40s} {value:14.6g} {unit}"
        if raw and unit == "s":
            line += f"   (raw {raw[name][0]:.6g} s)"
        print(line)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    samples = {
        "setup": setup_samples,
        "ops": [[inputs[op["input"]]["label"], op["kind"], op["round"], op["s"], op["ref"]]
                for op in ops],
    }
    results.mkdir(exist_ok=True)
    (results / f"result-{tag}.json").write_text(
        json.dumps(dict(result, samples=samples), indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
