#!/usr/bin/env python3
"""The valence-bound prover, end to end.

A combination of eta quotients that is a modular function on Gamma_0(N)
and vanishes to high enough order at infinity must vanish identically:
the per-cusp order bounds turn "high enough" into an explicit coefficient
count.  This script prints both shipped certificates and then refutes a
deliberately corrupted combination.

Run:  python3 demos/eta_proofs.py
"""

from thetaforms.identities import load_default_registry, verify_eta
from thetaforms.prover import EtaCombination, newman_check, prove


def main():
    registry = load_default_registry()

    certs = {name: verify_eta(registry[name]).detail
             for name in ("4.1", "5.4")}
    for name, cert in certs.items():
        comb = cert.combination
        print(f"== identity {name} (level {comb.level}, "
              f"{len(comb.terms)} quotients) ==")
        for _, eq in comb.terms:
            assert newman_check(eq).passed
        print(cert.render())
        print()

    print("== a corrupted combination is refuted, not silently accepted ==")
    comb = certs["4.1"].combination
    broken = EtaCombination(
        comb.level,
        ((comb.terms[0][0] + 1, comb.terms[0][1]),) + comb.terms[1:],
        comb.constant)
    cert = prove(broken)
    print("verdict:", cert.verdict)


if __name__ == "__main__":
    main()
