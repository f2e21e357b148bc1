"""Exact verification of theta-function and ternary quadratic form identities.

The package is organized around a dense integer power-series type
(:mod:`thetaforms.series`), constructors for the classical theta series and
eta quotients (:mod:`thetaforms.theta`), positive definite binary and
ternary forms with representation counting and class enumeration
(:mod:`thetaforms.forms`), p-adic genus classification and the lifted-union
construction (:mod:`thetaforms.genus`), a valence-bound prover for
eta-quotient identities (:mod:`thetaforms.prover`), degree-3 modular
equations as exponents over p, 2+p and 1+2p (:mod:`thetaforms.modeq`), and a
registry-driven verification engine (:mod:`thetaforms.identities`).
"""

from .series import (Series, alternate_sign, compose_power, invert,
                     is_nonnegative, sift)
from .theta import (EtaQuotient, euler, euler_power, expand_eta_quotient,
                    general_theta, named_function)
from .forms import (BinaryForm, TernaryForm, aut_count, discriminant,
                    enumerate_binary_classes, enumerate_ternary_classes,
                    reduce_binary, repcount, ternary_equivalent, theta_series)
from .genus import (GenusRecord, SGenus, binary_genus_partition, build_sgenus,
                    epsilon, genus_of, genus_partition, lift_binary_to_ternary,
                    mass_direct, mass_formula, orthogonality_check, same_genus,
                    sgenus_mass, weighted_count)
from .prover import (Cusp, EtaCombination, ProofCertificate, cusp_reps,
                     ligozat_order, newman_check, order_table, prove)
from .identities import (IdentitySpec, RegistryError, load_default_registry,
                         load_registry, parse_registry, run_suite,
                         verify_entry, verify_eta, verify_modeq3,
                         verify_positivity, verify_series, verify_ternary)

__version__ = "0.1.0"
