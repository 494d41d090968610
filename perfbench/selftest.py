"""Self-test of the checker on outputs known to be wrong.

    python3 perfbench/selftest.py

Each known-bad output must be flagged, and the genuine output it is made
from must pass, so a checker that flags everything fails too:

* the demo certificate with the former stabilizer (1, 1/64, 1/128, 1/256):
  E_1(M_t^2) < 0 at exactly t = 1/4, 1/2 and 3/4 of the sample points;
* the demo certificate with one cross term changed;
* a not-P refutation whose witness value is changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
from corpus import DEMO_A  # noqa: E402
from exact import fractions  # noqa: E402

FORMER_STABILIZER = ["1/1", "1/64", "1/128", "1/256"]
NOT_P = [[-2, 1, 0, 0], [1, 5, 1, 0], [0, 1, 5, 1], [0, 0, 1, 5]]


def _pstab(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _write(path, rows):
    path.write_text(f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    return str(path)


def run(cli, workdir):
    """Problems found in the checker; empty when it behaves."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    problems = []
    demo = checker.Truth(DEMO_A)
    cert_path = workdir / "selftest-demo.json"
    rc, _ = _pstab(cli, ["certify", _write(workdir / "selftest-demo.txt", DEMO_A),
                         "--json", str(cert_path)])
    if rc != 0:
        return [f"selftest: pstab certify exits {rc} on the demo"]
    doc = json.loads(cert_path.read_text())
    if checker.check_certificate(demo, doc):
        problems.append("selftest: the genuine demo certificate is flagged")

    b = fractions(doc["transform"]["b_matrix"])
    eps = [Fraction(e) for e in FORMER_STABILIZER]
    flagged = {t for t, _, _ in checker.homotopy_violations(b, eps)}
    if flagged != {Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)}:
        problems.append(f"selftest: former stabilizer flagged at t in {sorted(map(str, flagged))}")
    former = json.loads(json.dumps(doc))
    former["stabilizer"]["eps"] = FORMER_STABILIZER
    if not any("M_t^2" in p for p in checker.check_certificate(demo, former)):
        problems.append("selftest: certificate with the former stabilizer passes")

    tampered = json.loads(json.dumps(doc))
    key = sorted(tampered["cross_terms"])[0]
    tampered["cross_terms"][key] = checker.frac_str(Fraction(tampered["cross_terms"][key]) + 1)
    if "cross terms differ" not in checker.check_certificate(demo, tampered):
        problems.append("selftest: tampered cross term passes")

    not_p = checker.Truth(NOT_P)
    rc, out = _pstab(cli, ["certify", _write(workdir / "selftest-notp.txt", NOT_P)])
    if rc != 1 or checker.check_refutation(not_p, out):
        problems.append(f"selftest: genuine refutation (exit {rc}) is flagged: {out.strip()!r}")
    wrong = re.sub(r"= (-?\d+)$", lambda m: f"= {int(m.group(1)) - 1}", out.strip())
    if wrong == out.strip() or not checker.check_refutation(not_p, wrong):
        problems.append(f"selftest: refutation with a wrong witness passes: {wrong!r}")
    return problems


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    import pstab.cli

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        problems = run(pstab.cli, tmp)
    for p in problems:
        print(p)
    print("checker self-test:", "FAIL" if problems else "PASS (3 known-bad outputs flagged)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
