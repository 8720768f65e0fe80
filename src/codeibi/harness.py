"""Empirical security checks: canonical cheating provers, the
impersonation game, generic decoders to attack the trapdoor, and the
closed-form cost model.

Each cheating strategy prepares a round so that exactly two of the
three challenges verify, which is the best a prover without a valid
low-weight key can guarantee; k rounds then succeed with probability
(2/3)^k against a uniform challenger.
"""
from __future__ import annotations

import copy
import dataclasses
import enum
import itertools
import math
import random
from dataclasses import dataclass

from .binmat import BitMatrix, BitVector, gaussian_solve, mat_invert, mat_vec_mul, select_columns
from .errors import CostGuard, DimensionMismatch, ParameterError, RetryLimitExceeded, Singular
from .gf2m import FieldParams
from .goppa import _check_code_params
from .ibi import UserSecretKey, Verifier, derive_identifier, extract_user_key, ibi_identify, master_keygen
from .stern import ProverRoundState, _commit, stern_commit, stern_respond, verify_round

__all__ = [
    "CheatState",
    "CheatStrategy",
    "CostEstimate",
    "GameConfig",
    "GameResult",
    "brute_force_decode",
    "cheat_commit",
    "cheat_respond",
    "distinguish_from_random",
    "estimate_costs",
    "impersonation_game",
    "isd_success_prob",
    "prange_attempt",
    "prange_isd",
    "strategy_acceptance_set",
]


class CheatStrategy(enum.Enum):
    """Which two challenges the keyless prover prepares to answer."""

    SOLVE_SYNDROME = "solve-syndrome"  # s' solves the identifier; wrong weight; answers {0,1}
    WEIGHT_ONLY = "weight-only"  # s' has the right weight, wrong syndrome; answers {0,2}
    FORGE_C1 = "forge-c1"  # c1 precomputed for the b=1 opening; answers {1,2}


@dataclass(frozen=True)
class CheatState:
    strategy: CheatStrategy
    round_state: ProverRoundState
    s_fake: BitVector


def _random_wrong_syndrome_vec(
    h: BitMatrix, identifier: BitVector, w: int, rng: random.Random
) -> BitVector:
    for _ in range(1000):
        s = BitVector.random_weight(h.ncols, w, rng)
        if mat_vec_mul(h, s) != identifier:
            return s
    raise RetryLimitExceeded("every weight-w draw hit the identifier syndrome")


def cheat_commit(
    strategy: CheatStrategy,
    h: BitMatrix,
    identifier: BitVector,
    w: int,
    rng: random.Random,
):
    """Keyless round commitments for the given strategy, against public matrix h.

    Returns (CheatState, Commitments).  The SOLVE_SYNDROME strategy is
    only a two-of-three cheat when its solved vector does not have the
    claimed weight w; callers that need exact rates should check that.
    """
    if strategy is CheatStrategy.SOLVE_SYNDROME:
        s_fake = gaussian_solve(h, identifier)
    else:
        s_fake = _random_wrong_syndrome_vec(h, identifier, w, rng)
    state, com = stern_commit(h, s_fake, rng)
    if strategy is CheatStrategy.FORGE_C1:
        # commit to the syndrome the b=1 opening will exhibit
        syn = state.syn_y ^ mat_vec_mul(h, s_fake) ^ identifier
        c1 = _commit(state.sigma.words, syn.to_bytes())
        com = dataclasses.replace(com, c1=c1)
    return CheatState(strategy, state, s_fake), com


def cheat_respond(state: CheatState, ch: int):
    """Answer with the fake secret; the commitment checks decide the round."""
    return stern_respond(state.round_state, state.s_fake, ch)


def strategy_acceptance_set(
    strategy: CheatStrategy,
    h: BitMatrix,
    identifier: BitVector,
    w: int,
    rng: random.Random,
) -> set:
    """Challenges a single cheat commitment survives, tried exhaustively."""
    state, com = cheat_commit(strategy, h, identifier, w, rng)
    accepted = set()
    for ch in (0, 1, 2):
        resp = stern_respond(copy.copy(state.round_state), state.s_fake, ch)
        if verify_round(h, identifier, com, ch, resp, w):
            accepted.add(ch)
    return accepted


@dataclass(frozen=True)
class GameConfig:
    m: int
    t: int
    rounds: int
    trials: int
    seed: int
    kind: str = "cheat"  # cheat | wrong-key | honest


@dataclass(frozen=True)
class GameResult:
    kind: str
    trials: int
    successes: int
    rate: float
    bound: float  # expected acceptance rate for this adversary
    three_sigma: float


def impersonation_game(cfg: GameConfig) -> GameResult:
    """Monte Carlo of full identification sessions for one adversary kind."""
    if cfg.kind not in ("cheat", "wrong-key", "honest"):
        raise ParameterError(f"unknown adversary kind {cfg.kind!r}")
    if cfg.trials < 1:
        raise ParameterError(f"trials={cfg.trials}; need at least 1")
    rng = random.Random(cfg.seed)
    fp = FieldParams(cfg.m)
    mpk, msk = master_keygen(fp, cfg.t, cfg.rounds, rng)
    h = mpk.nied_pk.h_tilde
    identity = b"imp-pa:target"
    successes = 0

    if cfg.kind == "cheat":
        # keep the solve-syndrome strategy honest about its wrong weight:
        # skip identifiers whose pivot solution happens to weigh exactly t
        j = 1
        identifier = derive_identifier(mpk, identity, j)
        while gaussian_solve(h, identifier).weight() == cfg.t:
            j += 1
            identifier = derive_identifier(mpk, identity, j)
        strategies = tuple(CheatStrategy)
        for _ in range(cfg.trials):
            verifier = Verifier(mpk, identity, j, cfg.t, rng)
            while not verifier.done:
                state, com = cheat_commit(rng.choice(strategies), h, identifier, cfg.t, rng)
                verifier.check(cheat_respond(state, verifier.challenge(com)))
            successes += verifier.accepted
        bound = (2.0 / 3.0) ** cfg.rounds
    else:
        if cfg.kind == "honest":
            usk = extract_user_key(msk, mpk, identity, rng)
            bound = 1.0
        else:
            identifier = derive_identifier(mpk, identity, 1)
            usk = UserSecretKey(_random_wrong_syndrome_vec(h, identifier, cfg.t, rng), 1, cfg.t)
            bound = (2.0 / 3.0) ** cfg.rounds
        for _ in range(cfg.trials):
            successes += ibi_identify(usk, mpk, identity, rng, rng).accepted

    rate = successes / cfg.trials
    three_sigma = 3.0 * math.sqrt(bound * (1.0 - bound) / cfg.trials)
    return GameResult(cfg.kind, cfg.trials, successes, rate, bound, three_sigma)


def brute_force_decode(h_tilde: BitMatrix, syndrome: BitVector, t: int):
    """Exhaustive syndrome decoding, weight by weight, lexicographic.

    Returns the first matching vector or None.  Guarded: refuses
    instances beyond n = 40 or t = 3.
    """
    n = h_tilde.ncols
    if n > 40 or t > 3:
        raise CostGuard(f"refusing exhaustive search at n={n}, t={t}")
    if syndrome.n != h_tilde.nrows:
        raise DimensionMismatch("syndrome length does not match the matrix")
    if syndrome.bits == 0:
        return BitVector.zeros(n)
    cols = [h_tilde.column_int(j) for j in range(n)]
    target = syndrome.bits
    for w in range(1, t + 1):
        for combo in itertools.combinations(range(n), w):
            acc = 0
            for j in combo:
                acc ^= cols[j]
            if acc == target:
                return BitVector.from_support(n, combo)
    return None


def prange_attempt(h_tilde: BitMatrix, syndrome: BitVector, t: int, rng: random.Random):
    """One information-set decoding iteration.

    Draws redundancy sets until the selected square submatrix inverts
    (the draw is the iteration; the singular redraws are bookkeeping),
    solves for an error confined to those columns, and keeps it if the
    weight bound holds.  Returns the error vector or None.
    """
    n, r = h_tilde.ncols, h_tilde.nrows
    if syndrome.n != r:
        raise DimensionMismatch("syndrome length does not match the matrix")
    for _ in range(200):
        cols = sorted(rng.sample(range(n), r))
        try:
            a_inv = mat_invert(select_columns(h_tilde, cols))
        except Singular:
            continue
        x = mat_vec_mul(a_inv, syndrome)
        if x.weight() <= t:
            return BitVector.from_support(n, [cols[i] for i in x.support()])
        return None
    raise RetryLimitExceeded("200 singular submatrices in a row")


def prange_isd(
    h_tilde: BitMatrix,
    syndrome: BitVector,
    t: int,
    max_iters: int,
    rng: random.Random,
):
    """Repeat prange_attempt up to max_iters times; None if never found."""
    for _ in range(max_iters):
        e = prange_attempt(h_tilde, syndrome, t, rng)
        if e is not None:
            return e
    return None


def isd_success_prob(n: int, k: int, t: int) -> float:
    """Chance one random information set avoids all t errors."""
    p = 1.0
    for i in range(k):
        p *= 1.0 - t / (n - i)
    return p


def distinguish_from_random(h_tilde: BitMatrix) -> str:
    """Stub for telling a disguised decodable matrix from a uniform one.

    It implements no test.  At CFS rates such a test exists: the
    high-rate Goppa distinguisher of Faugère, Gauthier-Umaña, Otmani,
    Perret and Tillich (ITW 2011) separates these public keys from
    random ones by the dimension of their square code.  The stub marks
    where a proof's indistinguishability assumption enters the API.
    """
    return "no efficient test implemented"


@dataclass(frozen=True)
class CostEstimate:
    pk_bits: int
    sk_bits: int
    matrix_bits: int
    comm_bits_identification: int
    comm_bits_signature: int
    extraction_binops: float
    attack_binops_log2: float
    attack_binops_is_lower_bound: bool
    isd_success_prob: float


def estimate_costs(m: int, t: int, rounds_ibi: int, rounds_ibs: int) -> CostEstimate:
    """Closed-form size and work figures for parameters (m, t).

    Key sizes count the compact forms: an identifier or a weight-t
    support listing is t*m bits; the expanded public matrix is costed
    separately.  The attack exponent t*m/2 prices generic decoding of
    one syndrome, and drops a vanishing term, so it is a lower bound for
    that attack only.  Generalized-birthday forgery is not covered:
    Finiasz and Sendrier (ASIACRYPT 2009) put it below this figure at
    (16,9).
    """
    _check_code_params(m, t)
    if rounds_ibi < 1 or rounds_ibs < 1:
        raise ParameterError(f"rounds {rounds_ibi} and {rounds_ibs}; need at least 1 each")
    n = 1 << m
    k = n - m * t
    return CostEstimate(
        pk_bits=t * m,
        sk_bits=t * m,
        matrix_bits=n * m * t,
        comm_bits_identification=n * rounds_ibi,
        comm_bits_signature=n * rounds_ibs,
        extraction_binops=math.factorial(t) * t * t * m * m * (0.5 + 2.0 + 6.0 / m),
        attack_binops_log2=t * m / 2.0,
        attack_binops_is_lower_bound=True,
        isd_success_prob=isd_success_prob(n, k, t),
    )
