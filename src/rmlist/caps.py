"""Every feasibility cap of rmlist, declared once, with the reason for its value.

Past a cap a call raises before it allocates: ``ScaleError`` (exit 3) or,
for the variable and field counts and the F_q block length, ``InputError``
(exit 2). A counting bound keeps its terms at any size; only its integer
``value`` is capped, by ``BOUND_VALUE_BITS``, and ``bounds`` checks both
bounds before it multiplies either out. Two entries only choose a method:
``EXHAUSTIVE_DECODE_DIMENSION`` and ``EXHAUSTIVE_TUPLE_BITS``. Each is
compared in the one function named beside it; none is configurable.
"""

# A truth table is one Python int of 2^n bits: 128 MiB at n=30.
# ``boolfunc._require_variables``.
MAX_VARIABLES = 30
# Largest code dimension a codeword scan walks; RM(7,2), dimension 29, takes
# about 17 s on a 2-core VM. ``scan.require_dimension``.
DIMENSION_CAP = 30
# "auto" unique decoding scans the code up to this dimension and uses majority
# logic past it. ``approximator.unique_decode_within``.
EXHAUSTIVE_DECODE_DIMENSION = 26
# Every function on n <= 4 variables is 65,536 functions: the single-derivative
# sweep walks them all; exhaustive list-size centers cover them with one ball
# per coset of RM(n, d), 2^(2^n - dimension) balls, since cosets x codewords
# is still 2^(2^n) words. ``boolfunc.require_all_functions``.
ALL_FUNCTIONS_VARS = 4
# Derivative-table bits one call derives: m * 2^n for an approximator, 4^n for
# the single-derivative identity, 2^(n(k+1)) for the representation check,
# 2^(nk) for the exhaustive bias-bounds walk and (k-1) * samples * 2^n for the
# sampled one. This bounds time: a k=1 approximator at the cap (n=16) builds
# in 1.6 s. ``derivatives.require_derived_bits``.
DERIVED_TABLE_BITS_CAP = 1 << 32
# ``check_bias_bounds`` walks every direction tuple while n*(k-1) <= 24 and
# samples past it. ``derivatives.check_bias_bounds``.
EXHAUSTIVE_TUPLE_BITS = 24
# Prime fields up to F_7 keep value tables small. ``grm._require_field``.
MAX_FIELD = 7
# q^n <= 2^20 points: a ``GrmTable`` holds one Python int per point, and
# ``grm construct`` keeps one per member; its 64 default members take 24 s
# and 751 MiB at the cap on a 2-core VM. ``grm.GrmParams``.
GRM_POINT_BITS = 20
# q^dimension <= 2^24 codewords: once q^(n+1) passes ``scan.TILE_BYTES`` the
# tile is one row and the walk takes a Python step per codeword; (3,4,2),
# 3^15 codewords, takes 1.2 s on a 2-core VM. ``grm.grm_enumerate_weights``.
ENUM_CAP_BITS = 24
# q^dimension * q^n <= 2^32 scanned values: near the cap the tile walk costs
# 0.8 to 1.3 ns per value; (7,5,1) and (2,15,1), 2^30.9 and 2^31 values, take
# 2.5 and 1.8 s. ``grm.grm_enumerate_weights``.
ENUM_VALUE_BITS = 32
# A counting bound's integer value is built while samples x (bits per sample)
# <= 2^24; the 12.1-Mbit accumulative value of RM(5,2) at k=1, eps=1/10 takes
# 1.3 s on a 2-core VM. ``enumeration.BoundEstimate.require_value_bits``.
BOUND_VALUE_BITS = 1 << 24
