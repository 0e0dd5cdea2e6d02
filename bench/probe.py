"""Set-up probe, run once per fresh interpreter.

Prints ``{"import_s": ..., "setup_s": ...}``: the time from the start of
this script to the end of ``import tunnelnoise.cli``, and to the end of
one warm-up point per barrier family.  The tilted point (V0 = 5 eV,
E = 1 eV, phi = 1 eV, gap = 0.5 nm) has both Airy edge arguments in the
marched regime, so it also builds the lazy Airy anchor table.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402


def main() -> None:
    import tunnelnoise.cli  # noqa: F401

    t_import = perf_counter()
    from tunnelnoise.scattering import BarrierSpec
    from tunnelnoise.uncertainty import uncertainty_product
    from tunnelnoise.units import Energy

    for spec in (
        BarrierSpec.symmetric(5.0, 0.5),
        BarrierSpec.asymmetric(5.0, 1.0, 0.5),
        BarrierSpec.linear_field(5.0, 1.0, 0.5),
    ):
        uncertainty_product(Energy.from_ev(1.0), spec)
    t_ready = perf_counter()
    print(json.dumps({"import_s": t_import - T0, "setup_s": t_ready - T0}))


if __name__ == "__main__":
    main()
