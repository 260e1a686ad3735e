"""Exact and asymptotic statistics of integer partitions refined by their
2-core and 2-quotient: rank tables with three independent exact routes
(brute-force enumeration, crank sums over the pair counts, bivariate sieve),
leading-term circle-method asymptotics, and Jensen/Hermite convergence
checks with exact hyperbolicity certificates.

Every name has one import path, its module: ``from bgrank.series import
p2_values``, ``from bgrank.turan import is_hyperbolic``.  This file binds
nothing but ``__version__``, the version's one owner, which
``pyproject.toml``, ``bgrank --version`` and the cache headers read.

Series, counting tables, joint tables (one {quotient rank: count} dict per
size), Jensen coefficients and Sturm chains are plain lists, dicts and
tuples; a ``Partition``'s cores and quotients are read off its t-abacus;
the O(N^2) series oracle behind ``bgrank validate`` is not exported.
``StatTable`` (``bgrank.cache``) is a table as ``bgrank table`` serves and
caches it: kind, params and its ``n,value`` text, whose values are parsed
on first read when the table came from a cache file.
Every experiment, the onset atlas included, is a ``bgrank`` subcommand
(``bgrank.cli``), whose ``_STATS`` names each table's kind and route."""

__version__ = "0.1.0"
