"""Every feasibility cap of rmlist, declared once, with the reason for its value.

Past a cap a call raises before it allocates: ``ScaleError`` (exit 3) or,
for the variable and field counts and the F_q block length, ``InputError``
(exit 2). A counting bound keeps its terms at any size; only its integer
``value`` is capped, by ``BOUND_VALUE_BITS``, and ``bounds`` checks both
bounds before it multiplies either out. A ball's member count is known only
as its scan runs, so ``BALL_MEMBER_CAP`` is checked while the hits are
collected, before any row is built. Two entries only choose a method:
``EXHAUSTIVE_DECODE_DIMENSION`` and ``EXHAUSTIVE_TUPLE_BITS``. Each is
compared in the one function named beside it; none is configurable.
``grm_max_degree`` derives a bound from ``GRM_POINT_BITS`` and adds no number.
"""

# A truth table is one Python int of 2^n bits: 128 MiB at n=30.
# ``boolfunc._require_variables``.
MAX_VARIABLES = 30
# Largest code dimension a codeword scan covers; RM(7,2), dimension 29, takes
# 11-12 s on a 2-core VM (the kernel walks half the code and folds in the
# complements). It also bounds the enumerators past d = 2, RM(n,n-2..n),
# whose up to 2^n + 1 weights come from binomials and MacWilliams sums;
# RM(n,1) and RM(n,2) have closed forms of at most n + 3 weights at every n.
# ``scan.refusal``, which admits every scan, and ``enumeration._weight_counts``
# both ask ``boolfunc.CodeParams.dimension_refusal``.
DIMENSION_CAP = 30
# A scan covers at most 2^33 uint64 words (2^dimension x words per table; the
# half walk XORs half of them): RM(7,2) (2^30 words) takes 11-12 s and RM(19,1)
# (2^33) 15-16 s on a 2-core VM, where, before the half walk, RM(20,1) (2^35)
# took 74 s. Only the first-order codes past n = 19 reach it under the
# dimension cap, for balls, list-size estimates and exhaustive decoding;
# ``enum`` scans no code. ``scan.refusal``.
SCAN_WORD_BITS = 33
# A list-decoding ball holds at most 2^20 members. A member costs about 56
# bytes of CSV and about 200 bytes of peak RSS: a 944,000-member RM(6,2) ball
# (radius 28/64) lists in 1.0-1.5 s at a peak RSS of 220 MiB on a 2-core VM.
# Past it, RM(6,2) around 0 at 31/64 holds 1,183,085 members (refused in
# 0.3 s at a 50 MiB peak) and RM(7,2) near 1/2 about 2^28. The count is
# checked while the scan collects the hits, before any member is ranked or
# rendered. ``listdecode.ball``.
BALL_MEMBER_CAP = 1 << 20
# "auto" unique decoding scans up to this dimension (n <= 10, 2^15 words: under the scan
# caps), majority logic past it. Whole-code scan vs majority, 2-core VM: RM(4,2) 0.02/0.10
# ms, RM(10,1) 0.07/0.08 (dimension 11); RM(11,1) 0.21/0.09 (12); RM(6,2) 3.7/0.14 (22);
# RM(16,1) 173/0.24 (17); RM(18,1) 2800/0.57 ms (19). ``approximator.unique_decode_within``.
EXHAUSTIVE_DECODE_DIMENSION = 11
# Every function on n <= 4 variables is 65,536 functions: the single-derivative
# sweep walks them all; exhaustive list-size centers cover them with one ball
# per coset of RM(n, d), 2^(2^n - dimension) balls, since cosets x codewords
# is still 2^(2^n) words. ``boolfunc.require_all_functions``.
ALL_FUNCTIONS_VARS = 4
# Derivative-table bits one call derives: m * 2^n for an approximator, 4^n for
# the single-derivative identity, 2^(n(k+1)) for the representation check,
# 2^(nk) for the exhaustive bias-bounds walk and (k-1) * samples * 2^n for the
# sampled one. This bounds time: a k=2 approximator at the cap (n=16,
# m=65,536) builds in 5.6-7.6 s on a 2-core VM. A k=1 one derives no table and
# builds there in 0.04 s; the cap still refuses it past m * 2^n = 2^32, so that
# every k admits the same (m, n). ``derivatives.require_derived_bits``.
DERIVED_TABLE_BITS_CAP = 1 << 32
# ``check_bias_bounds`` walks every direction tuple while n*(k-1) <= 24 and
# samples past it. ``derivatives.check_bias_bounds``.
EXHAUSTIVE_TUPLE_BITS = 24
# Prime fields up to F_7 keep value tables small. ``grm._require_field``.
MAX_FIELD = 7
# q^n <= 2^20 points: a ``GrmTable`` holds one uint8 per point, and ``grm
# construct`` keeps one per member and streams each as a line of digits; its
# 64 default members at the cap, (q,n,d,k) = (2,20,2,1), take 0.64-0.79 s at a
# 116 MiB peak RSS (a 67 MB CSV; whole process, 2-core VM), (7,7,13,2)
# 1.2 s at 123 MiB, and (2,20,10,1), whose members use 4,096 monomials of
# degree up to 10, 40-50 s at 286 MiB. ``grm.GrmParams``.
GRM_POINT_BITS = 20


def grm_max_degree(q: int) -> int:
    """n(q-1) for the largest n with q^n <= 2^``GRM_POINT_BITS``: the largest degree
    of any F_q code ``grm.GrmParams`` admits (20, 24, 32 and 42 for q = 2, 3, 5, 7).
    ``grm thresholds`` asks for no code, so this bounds its d: at q = 7, d = 20,000
    wrote a 28.5 MB CSV in 2.4 s, and d = 50,000 passed Python's int-to-str digit
    limit. ``grm.weight_thresholds``."""
    n = 0
    while q ** (n + 1) <= 1 << GRM_POINT_BITS:
        n += 1
    return n * (q - 1)


# q^dimension <= 2^24 codewords: once q^(n+1) passes ``scan.TILE_BYTES`` the
# tile is one row and the walk takes a Python step per codeword up to scalar
# multiples; (3,4,2), 3^15 codewords, takes 0.35-0.37 s on a 2-core VM.
# ``grm.grm_enumerate_weights``.
ENUM_CAP_BITS = 24
# q^dimension * q^n <= 2^32 codeword values: near the cap the walk compares
# one codeword in q - 1 at about 0.6 ns per value, 0.1 to 0.3 ns per value
# covered; (7,5,1), 2^30.9 values, takes 0.19-0.21 s on a 2-core VM. At q = 2
# the enumerator is a closed form: (2,15,1), 2^31 values, takes 7 us.
# ``grm.grm_enumerate_weights``.
ENUM_VALUE_BITS = 32
# A counting bound's integer value is built while samples x (bits per sample)
# <= 2^24; the 12.1-Mbit accumulative value of RM(5,2) at k=1, eps=1/10 takes
# 1.3 s on a 2-core VM. ``enumeration.BoundEstimate.require_value_bits``.
BOUND_VALUE_BITS = 1 << 24
