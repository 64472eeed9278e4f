"""Exact arithmetic for multiple harmonic sums.

Evaluates the strict/star, standard/odd (and alternating) nested harmonic
sums as exact rationals, certifies their non-integrality with
machine-checkable witnesses, reproduces the prime-window threshold table,
and verifies the terminating-hypergeometric evaluations of the depth-one
sums.  The `oddharmonic` console script exposes all of it.
"""

from .certificates import (
    Certificate,
    decimal_bound_checks,
    depth_threshold_holds,
    leading_exponent_bound,
    verify_odd_noninteger,
    verify_star_noninteger,
)
from .exact import (
    as_rational,
    int_valuation,
)
from .hyper import (
    alternating_binomial_sum,
    alternating_binomial_sums,
    binomial_inversion,
    binomial_transform,
    chu_vandermonde_prefixes,
    consecutive_product_sum_prefixes,
    consecutive_product_sums,
    euler_binomial_harmonic,
    harmonic_via_hyper_prefixes,
    odd_harmonic_closed_form,
    odd_power_sum_identity_prefixes,
    pfq,
    pfq_rows,
)
from .primes import (
    bertrand_prime,
    is_prime,
    window_prime,
    window_report,
    window_threshold,
)
from .sums import (
    Composition,
    STAR_ODD,
    STAR_STANDARD,
    STRICT_ODD,
    STRICT_STANDARD,
    SumSpec,
    WorkLimitExceeded,
    compositions,
    dominates,
    harmonic_sum,
    harmonic_sum_brute,
    harmonic_sum_pairs,
    harmonic_sum_prefixes,
    ones_power_bound,
)

__version__ = "0.1.0"
