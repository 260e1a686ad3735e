"""Exact and asymptotic statistics of integer partitions refined by their
2-core and 2-quotient: rank tables with three independent exact routes
(brute-force enumeration, crank sums over the pair counts, bivariate sieve),
leading-term circle-method asymptotics, and Jensen/Hermite convergence
checks with exact hyperbolicity certificates.

Series, counting tables, joint tables (one {quotient rank: count} dict per
size), Jensen coefficients and Sturm chains are plain lists, dicts and
tuples; a ``Partition``'s cores and quotients are read off its t-abacus;
the O(N^2) series oracle behind ``bgrank validate`` is not exported.
``StatTable`` (``bgrank.cache``) is a table as ``bgrank table`` serves and
caches it: kind, params and its ``n,value`` text, whose values are parsed
on first read when the table came from a cache file.
Every experiment, the onset atlas included, is a ``bgrank`` subcommand
(``bgrank.cli``), whose ``_STATS`` names each table's kind and route."""

from ._meta import TOOL_VERSION as __version__
from .partitions import (
    Partition,
    bg_core_size,
    bg_rank,
    enumerate_partitions,
    littlewood_compose,
    littlewood_decompose,
    rank_census,
    two_quotient_rank,
)
from .series import (
    OrthogonalityError,
    joint_table,
    p2_values,
    p_values,
    pbar_abn_table,
    pbar_abn_values,
    pbar_eta,
    pbar_values,
)
from .asymptotics import (
    HR_PARAMS,
    WrightParams,
    arc_dominance_check,
    dilog_identity_residual,
    f1_truncated_product,
    h_congruence_numeric,
    lerch_phi_unit,
    rank_count_params,
    wright_asymptotic,
    wright_coefficient,
)
from .turan import (
    TuranReport,
    hermite,
    hermite_distance,
    hyperbolicity_onset,
    is_hyperbolic,
    jensen_poly,
    renorm_sequences_step2,
    renormalized_jensen,
    sturm_chain,
    turan_report,
)
from .cache import StatTable, get_table, load_table, save_table
from .reporting import RunReport
