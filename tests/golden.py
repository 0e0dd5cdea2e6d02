"""Golden output bytes: the sha256 of stdout of fixed in-process CLI calls.

The digests were recorded with Python 3.11 and hold on 3.10 to 3.13.  The
Airy asymptotic sums add their terms one by one in a fixed order, so
they do not follow the interpreter's ``sum()``, which compensates its
rounding from Python 3.12 on; with ``sum()`` the tilted JSON gap sweep
and the tilted solve below printed other bytes on 3.12 and 3.13.

Every call runs twice in one process, so the digests also cover reuse of
the argument parser that ``cli.main`` builds once per process.

This module needs no pytest.  ``tests/test_golden_output.py`` imports
the table, and ``python tests/golden.py`` checks it against an
importable ``tunnelnoise``, the installed one or ``PYTHONPATH=src``: it
prints one line per mismatch and exits 1 if there is any.
"""

import contextlib
import hashlib
import io
import sys

from tunnelnoise.cli import main

GAP_SWEEP = ("sweep", "--barrier", "field", "--sweep", "gap", "--phi", "1",
             "--min", "0.1", "--max", "3", "--steps", "60")

GOLDEN = [
    # Tilted bias sweep: row 0 is below the 1e-9 eV dispatch seam, row 1
    # above it, and the turning point phi = V0 - E = 4 eV lies inside.
    (("sweep", "--barrier", "field", "--sweep", "phi", "--min", "0", "--max", "6",
      "--steps", "41"),
     "02159d706c313ce937d6d7f6c920face7b6f8c312f6bffce4efe261832b84537"),
    # Tilted gap sweep whose edge arguments reach the asymptotic regime.
    (GAP_SWEEP,
     "a405b1c4892fcc43c571dcdc95c32c1003aa374ff4ecfe153e99ef5fa149ed3a"),
    ((*GAP_SWEEP, "--format", "json"),
     "448992420c8b6942481a62e0d4610247c6ab4382a00dc273cd7c36ba27fb6547"),
    (("sweep", "--barrier", "asym", "--sweep", "phi", "--min", "0", "--max", "3",
      "--steps", "25"),
     "a90c7f2e159ed2074efa1dafb484c765d2bcaa1a296a4e0fa8d307f5d1133a5c"),
    (("sweep", "--barrier", "sym", "--sweep", "gap", "--min", "0.1", "--max", "5",
      "--steps", "30", "--columns", "T,R,delta_l,delta_p,product,s_fq"),
     "245e62c1f4826571a2705473c7d1c6dfde24301177ccceb379785eb45f58b1ba"),
    (("solve", "--barrier", "sym"),
     "63ce15689fd683b4d8a788200f4bd6521e7144ee0149a10272375d01e5fb54be"),
    (("solve", "--barrier", "asym", "--V0", "4", "--E", "1.2", "--phi", "1.5",
      "--gap", "0.3"),
     "7e78b89ba4f646fb8b97e146e901596e5561a782346165049de908007a128cb2"),
    (("solve", "--barrier", "field", "--phi", "2", "--gap", "0.5"),
     "9cec7143d0cff46046a08227e1ceb6ca9f22b9acd6cc39bc812d1278002f67d7"),
    # Opaque asymmetric barrier: t underflows to 0 while c_minus does not,
    # and the uncertainty pair is unavailable.
    (("solve", "--barrier", "asym", "--phi", "1", "--gap", "80"),
     "92f84ca3453a9d4bb39ac70db868b32e21b654a315c408140386145b21a9bbd4"),
    (("selftest",),
     "2a89cf2a12e3088e68ab47efd1726ec2b5ea6405371c96b80a4ddd399dd6905b"),
]


def digest(argv) -> tuple:
    """``(exit code, sha256 of stdout)`` of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def mismatches() -> list:
    """``(round, command line)`` of every call off its digest, two rounds."""
    return [
        (round_no, " ".join(argv))
        for round_no in (1, 2)
        for argv, want in GOLDEN
        if digest(argv) != (0, want)
    ]


if __name__ == "__main__":
    failed = mismatches()
    for round_no, command in failed:
        print(f"mismatch in round {round_no}: tunnelnoise {command}")
    print(f"{len(GOLDEN)} golden calls, 2 rounds, {len(failed)} mismatches")
    sys.exit(1 if failed else 0)
