"""Exact q-series arithmetic and enumeration for colored overlined partitions.

The package has four layers:

- :mod:`overcubic.series`: the truncated power-series ring (exact integers
  or residues mod m) with dissection and substitution operators.
- :mod:`overcubic.eta`: Euler products, eta quotients, theta sums, and the
  named generating functions built from them.
- :mod:`overcubic.counting`: dynamic-programming and brute-force partition
  counters that serve as combinatorial ground truth.
- :mod:`overcubic.verify`: residue classification, congruence-family
  sweeps, and two-series identity checks with machine-readable reports.

``overcubic.cli`` exposes all of it as the ``overcubic`` command.
"""

from .counting import (
    BRUTE_FORCE_CAP,
    ColoredOverPartition,
    ColoredPart,
    DecompositionCounts,
    chi_distinct,
    count_gen_cubic,
    count_gen_cubic_brute,
    count_gen_overcubic_brute,
    count_gen_overcubic_dp,
    count_overpartitions,
    count_partitions,
    count_partitions_brute,
    decompose,
    distinct_class_profile,
    iter_overcubic_partitions,
    tau_even,
    tau_odd,
)
from .eta import (
    EtaQuotient,
    EtaQuotientParseError,
    ThetaSpec,
    chi,
    expand_eta_quotient,
    expand_f,
    gen_cubic_gf,
    gen_overcubic_gf,
    parse_eta_quotient,
    phi,
    psi,
    psi_neg,
    theta_sum,
    toh_rhs,
)
from .series import NonInvertibleError, Series
from .verify import (
    CONJECTURED_FAMILIES,
    IDENTITIES,
    PROVED_FAMILIES,
    CongruenceFamily,
    Counterexample,
    Mod4Class,
    VerificationReport,
    check_identity,
    check_named_identity,
    classify_n,
    expected_mod4_residue,
    verify_conjectured_families,
    verify_family,
    verify_mod4_classification,
    verify_proved_families,
)

__version__ = "0.1.0"
