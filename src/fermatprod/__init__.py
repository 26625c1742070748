"""Exact prime-order accounting for products of generalized Fermat values.

For P(m, n) = prod_{x <= m} (x^(2^n) + 1), this package computes exact
prime-power valuations, certifies the congruence-system bound p <= 2(x+1),
verifies the anchored chains giving every P(m, n), n = 2 and 3, a prime of
order at most 2^n for m up to max(10^12, 4^(n+1)) (one link search, each
next root checked once mod p^2 for order exactly 1), and spot-checks the
analytic estimates that extend the statement beyond that range.
"""

from .analytic import (
    check_bt_bound,
    check_logsum_bound,
    check_pi_bound,
    check_theta_window,
    final_inequality_crossing,
    final_inequality_margin,
    pi,
    pi_ap,
    theta_ap,
)
from .check import Check
from .cyclotomic import (
    CongruenceSystem,
    check_prime_bound,
    counterexample_search,
    iter_realizable_systems,
    pigeonhole_witness,
    prime_bound_search,
    single_entry_search,
)
from .ntcore import (
    RootSet,
    count_roots_upto,
    is_prime,
    roots_of_minus_one,
)
from .partitions import (
    Partition,
    big_n,
    condition_witness,
    enumerate_partitions,
    extreme_partition,
    r_bound,
    verify_minimality,
)
from .prodorders import (
    ValuationTable,
    alpha_p,
    alpha_two,
    beta_p,
    bound_checks,
    build_valuation_table,
    is_qth_power_obstructed,
    verify_chain,
)

__version__ = "0.1.0"

__all__ = [
    "Check",
    "CongruenceSystem",
    "Partition",
    "RootSet",
    "ValuationTable",
    "alpha_p",
    "alpha_two",
    "beta_p",
    "big_n",
    "bound_checks",
    "build_valuation_table",
    "check_bt_bound",
    "check_logsum_bound",
    "check_pi_bound",
    "check_prime_bound",
    "check_theta_window",
    "condition_witness",
    "count_roots_upto",
    "counterexample_search",
    "enumerate_partitions",
    "extreme_partition",
    "final_inequality_crossing",
    "final_inequality_margin",
    "is_prime",
    "is_qth_power_obstructed",
    "iter_realizable_systems",
    "pi",
    "pi_ap",
    "pigeonhole_witness",
    "prime_bound_search",
    "r_bound",
    "roots_of_minus_one",
    "single_entry_search",
    "theta_ap",
    "verify_chain",
    "verify_minimality",
]
