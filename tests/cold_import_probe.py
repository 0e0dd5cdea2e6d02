"""Cold-start import guard for the command-line module.

Run as a script in a fresh interpreter, it imports ``tunnelnoise.cli``
from wherever the interpreter finds it, prints where that was and which
guarded modules the import loaded, and exits 1 if it loaded any:

    python tests/cold_import_probe.py

The numeric packages are test-only dependencies, and ``dataclasses``
brings ``inspect``, ``ast``, ``dis`` and ``tokenize`` with it, which
costs every CLI call 8-12 ms.  Modules the interpreter loaded at start-up
(a site hook may load ``inspect``) are not counted against the import.
"""

import sys

GUARDED = {"numpy", "scipy", "mpmath", "dataclasses", "inspect"}

if __name__ == "__main__":
    before = set(sys.modules)
    import tunnelnoise.cli

    loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
    print(f"{tunnelnoise.cli.__file__}: {sorted(loaded & GUARDED)}")
    sys.exit(1 if loaded & GUARDED else 0)
