"""Agent-based platform simulation.

Heterogeneous streamer and viewer agents interacting over discrete
rounds: per-round discrete choice with Gumbel noise and loyalty,
revenue split between streamers and the platform, myopic quality
investment against decay, and rank-dependent policy interventions
(high commission on top streamers, exposure boosts and subsidies for
small ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Domain, DomainError, cpu_count, map_in_threads, require_array, require_fields
from .logit import logit_slope

__all__ = [
    "PolicyIntervention",
    "SimConfig",
    "RoundRecord",
    "SimState",
    "SimRun",
    "init_platform",
    "apply_policy",
    "run_round",
    "simulate",
]

# The domain of each field a policy kind reads; no kind reads the others.
_START_ROUND = Domain(1, integer=True)
_BOTTOM_FRACTION = Domain(0, 1, "(]")
_POLICY_DOMAINS = {
    "high_tax": {"start_round": _START_ROUND, "top_k": Domain(1, integer=True),
                 "raised_share": Domain(0, 1, "[)")},
    "boost_small": {"start_round": _START_ROUND, "bottom_fraction": _BOTTOM_FRACTION,
                    "boost_multiplier": Domain(0, ends="()")},
    "subsidy": {"start_round": _START_ROUND, "bottom_fraction": _BOTTOM_FRACTION,
                "per_round_amount": Domain(0)},
}
POLICY_KINDS = tuple(_POLICY_DOMAINS)

# The round kernel walks the viewers in blocks of about this many utility
# cells (512 KB of float64), so a block and its noise stay in cache.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class PolicyIntervention:
    """Rank-dependent intervention applied every round from start_round on.

    high_tax: the top_k streamers by last-round audience pay raised_share.
    boost_small: the bottom bottom_fraction get exposure boost_multiplier.
    subsidy: the bottom bottom_fraction receive per_round_amount after
    commission, funded out of platform revenue.
    """

    kind: str
    start_round: int = 10
    top_k: int = 3
    raised_share: float = 0.4
    bottom_fraction: float = 0.5
    boost_multiplier: float = 1.5
    per_round_amount: float = 0.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise DomainError(f"unknown policy kind {self.kind!r}, expected one of {POLICY_KINDS}")
        require_fields(self, _POLICY_DOMAINS[self.kind])


def _sequence(value, name: str, what: str, accept) -> tuple:
    """value as a tuple, if it is an iterable whose every item accept takes."""
    try:
        items = tuple(value)
    except TypeError:
        items = None
    if items is None or not all(accept(x) for x in items):
        raise DomainError(f"{name} must be a sequence of {what}, got {value!r}")
    return items


_SIM_DOMAINS = {
    "n_streamers": Domain(1, integer=True),
    "n_viewers": Domain(1, integer=True),
    "n_rounds": Domain(0, integer=True),
    "base_revenue_share": Domain(0, 1, "[)"),
    "network_effect_beta": Domain(),
    "quality_decay_rate": Domain(0, 1, "[)"),
    "random_effect_scale": Domain(0),
    "seed": Domain(0, integer=True),
    "revenue_per_viewer": Domain(0),
    "match_bonus": Domain(),
    "quality_responsiveness": Domain(0),
    "investment_audience_scale": Domain(0, ends="()"),
    "investment_min_revenue": Domain(),
    "investment_step_cap": Domain(0, ends="()"),
    "subsidy_quality_efficiency": Domain(),
    "exit_revenue_floor": Domain(0),
    "exit_patience": Domain(1, integer=True),
    "interaction_weight": Domain(),
    "n_content_types": Domain(1, integer=True),
}


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; the first block mirrors the platform defaults,
    the second holds the behavioral coefficients (all overridable)."""

    n_streamers: int = 15
    n_viewers: int = 1000
    n_rounds: int = 50
    base_revenue_share: float = 0.2
    network_effect_beta: float = 0.15
    quality_decay_rate: float = 0.01
    random_effect_scale: float = 0.2
    policy_schedule: tuple[PolicyIntervention, ...] = ()
    seed: int = 0

    revenue_per_viewer: float = 1.0
    match_bonus: float = 0.3
    prices: tuple[float, ...] | None = None
    quality_responsiveness: float = 1.6e-4
    investment_audience_scale: float = 1000.0
    investment_min_revenue: float = 40.0
    investment_step_cap: float = 0.0075
    boost_investment: bool = True
    subsidy_quality_efficiency: float = 5e-4
    exit_revenue_floor: float = 4.0
    exit_patience: int = 5
    interaction_weight: float = 0.0
    n_content_types: int = 3

    def __post_init__(self):
        require_fields(self, _SIM_DOMAINS)
        # a JSON "false" is a string, and any string is truthy
        if not isinstance(self.boost_investment, (bool, np.bool_)):
            raise DomainError(
                f"boost_investment must be true or false, got {self.boost_investment!r}"
            )
        if self.prices is not None:
            object.__setattr__(self, "prices", tuple(
                require_array("prices", self.prices, 0, shape=(self.n_streamers,)).tolist()))
        object.__setattr__(self, "policy_schedule", _sequence(
            self.policy_schedule, "policy_schedule", "PolicyIntervention",
            lambda p: isinstance(p, PolicyIntervention)))
        n = self.n_streamers
        for pol in self.policy_schedule:
            if pol.start_round > max(self.n_rounds, 1):
                raise DomainError(
                    f"policy start_round {pol.start_round} exceeds n_rounds {self.n_rounds}"
                )
            # the ranks apply_policy takes, checked before any round runs
            if pol.kind == "high_tax" and pol.top_k > n:
                raise DomainError(f"{pol.kind} top_k {pol.top_k} exceeds n_streamers {n}")
            if pol.kind != "high_tax" and math.floor(n * pol.bottom_fraction) < 1:
                raise DomainError(
                    f"{pol.kind} bottom_fraction {pol.bottom_fraction} selects no streamer of {n}"
                )


@dataclass(frozen=True)
class RoundRecord:
    """Per-round tracking: audiences, money flows, qualities, satisfaction."""

    round_index: int
    viewer_counts: np.ndarray
    streamer_revenues: np.ndarray
    platform_revenue: float
    qualities: np.ndarray
    mean_satisfaction: float


@dataclass
class SimState:
    """Runtime state: the whole population as per-streamer and per-viewer
    arrays, and what the next round reads of the last one.

    A round writes only `quality`, `active`, `lean_rounds`, `prev_counts`,
    `last_choice` and the generator `rng`; the policy levers (commission,
    exposure boost, subsidy) are values of one round and live in run_round.
    A run keeps only the viewer columns its rounds read: `interaction` is
    None unless cfg.interaction_weight != 0, and `price_sens` (with the
    streamers' `prices`) None unless cfg.prices is set. `preferred` and
    `last_choice` (-1 before a viewer's first round) are held in the
    smallest signed integer dtype that holds their values. The round
    kernel writes `last_choice` in place; its work buffers are its own."""

    cfg: SimConfig
    rng: np.random.Generator
    # streamer columns
    quality: np.ndarray
    cost_coef: np.ndarray
    content_type: np.ndarray
    active: np.ndarray
    lean_rounds: np.ndarray
    # viewer columns
    interaction: np.ndarray | None
    price_sens: np.ndarray | None
    quality_sens: np.ndarray
    network_sens: np.ndarray
    preferred: np.ndarray
    loyalty: np.ndarray
    last_choice: np.ndarray
    # round bookkeeping
    prev_counts: np.ndarray
    mean_quality_sens: float
    prices: np.ndarray | None


def _index_dtype(top: int) -> np.dtype:
    """The smallest signed integer dtype that holds -1 .. top."""
    return np.dtype(next(t for t in (np.int8, np.int16, np.int32, np.int64)
                         if top <= np.iinfo(t).max))


def init_platform(cfg: SimConfig) -> SimState:
    """Draw a fresh population from a seeded generator into a SimState.

    Streamer initial quality is normal(0.5, 0.2) clipped to [0.1, 0.9];
    cost coefficients are uniform on [0.1, 0.3]; viewer sensitivities use
    their stated uniform ranges. Identical seeds give identical
    populations, and the generator is left where round 1 draws from it.
    Every column is drawn, in a fixed order, whether the run keeps it or
    not, so the stream and the kept columns do not depend on the config's
    interaction_weight or prices. Nothing else is allocated: the policy
    levers and the round kernel's buffers live for one round.
    """
    rng = np.random.default_rng(cfg.seed)
    n, m = cfg.n_streamers, cfg.n_viewers

    quality = np.clip(rng.normal(0.5, 0.2, size=n), 0.1, 0.9)
    cost_coef = rng.uniform(0.1, 0.3, size=n)
    content_type = rng.integers(0, cfg.n_content_types, size=n)

    # a column the rounds never read is dropped as soon as it is drawn
    interaction = rng.uniform(0.2, 0.8, size=m)
    if cfg.interaction_weight == 0.0:
        interaction = None
    price_sens = rng.uniform(0.3, 0.7, size=m)
    if cfg.prices is None:
        price_sens = None
    quality_sens = rng.uniform(0.4, 0.8, size=m)
    network_sens = rng.uniform(0.1, 0.4, size=m)
    # drawn as int64, the dtype that fixes how integers read the stream
    preferred = rng.integers(0, cfg.n_content_types, size=m).astype(
        _index_dtype(cfg.n_content_types - 1))
    loyalty = rng.uniform(0.3, 0.7, size=m)

    prices = np.asarray(cfg.prices, dtype=float) if cfg.prices is not None else None
    return SimState(
        cfg=cfg,
        rng=rng,
        quality=quality,
        cost_coef=cost_coef,
        content_type=content_type,
        active=np.ones(n, dtype=bool),
        lean_rounds=np.zeros(n, dtype=np.int64),
        interaction=interaction,
        price_sens=price_sens,
        quality_sens=quality_sens,
        network_sens=network_sens,
        preferred=preferred,
        loyalty=loyalty,
        last_choice=np.full(m, -1, dtype=_index_dtype(n - 1)),
        prev_counts=np.zeros(n, dtype=np.int64),
        mean_quality_sens=float(quality_sens.mean()),
        prices=prices,
    )


def apply_policy(policy: PolicyIntervention, state: SimState, share: np.ndarray,
                 boost: np.ndarray, subsidy: np.ndarray) -> None:
    """Write one policy in force into the round's (N,) levers share, boost
    or subsidy, ranking the streamers still on the platform by last-round
    counts; ties break by streamer index (stable sort), so runs are
    reproducible. SimConfig has checked that the policy ranks a streamer.
    """
    alive = np.flatnonzero(state.active)
    if policy.kind == "high_tax":
        order_desc = alive[np.argsort(-state.prev_counts[alive], kind="stable")]
        share[order_desc[: policy.top_k]] = policy.raised_share
        return
    k = int(np.floor(state.cfg.n_streamers * policy.bottom_fraction))
    order_asc = alive[np.argsort(state.prev_counts[alive], kind="stable")]
    targets = order_asc[:k]
    if policy.kind == "boost_small":
        boost[targets] = policy.boost_multiplier
    else:
        subsidy[targets] += policy.per_round_amount


def _gumbel_block(rng: np.random.Generator, scale: float, out: np.ndarray) -> bool:
    """Fill out with Gumbel(0, scale) noise, reading rng as rng.gumbel does,
    and return whether a uniform draw was 0.0, in which case the block was
    redrawn with rng.gumbel; see _choose_streamers for the contract."""
    saved = rng.bit_generator.state
    rng.random(out=out)
    if not out.all():
        rng.bit_generator.state = saved
        out[...] = rng.gumbel(0.0, scale, size=out.shape)
        return True
    np.subtract(1.0, out, out=out)
    np.log(out, out=out)
    np.negative(out, out=out)
    np.log(out, out=out)
    np.multiply(scale, out, out=out)
    np.subtract(0.0, out, out=out)
    return False


def _systematic_utility(state: SimState, boost: np.ndarray, block: slice, u: np.ndarray,
                        term: np.ndarray) -> np.ndarray:
    """Fill u, of shape (rows of block, N), with the block's viewers'
    systematic utilities under the round's (N,) exposure boost, and return
    it; term is scratch of u's shape.

    Viewer j's systematic utility for streamer i is
        qs_j q_i + beta ns_j log1p(n_i) - ps_j p_i + match_bonus [pref_j == type_i]
        + log(boost_i) + w inter_j log1p(n_i) + loyalty_j [last_j == i],
    with -inf for streamers that exited, where n_i = state.prev_counts[i] is
    last round's audience (integer or float) and boost_i = boost[i]. The
    network term damps the raw count at large viewer pools, and the
    exposure boost acts as a multiplicative logit weight. This is the one
    place the ABM's utility is written: the round kernel adds Gumbel noise
    to it.
    """
    cfg = state.cfg
    lognet = np.log1p(state.prev_counts.astype(float))
    match = np.arange(cfg.n_content_types)[:, None] == state.content_type
    bonus = float(cfg.match_bonus) * match  # float64 for np.take's out=, an int bonus too
    np.multiply(state.quality_sens[block, None], state.quality, out=u)
    network = cfg.network_effect_beta * state.network_sens[block, None]
    u += np.multiply(network, lognet, out=term)
    if state.price_sens is not None:
        u -= np.multiply(state.price_sens[block, None], state.prices, out=term)
    # preferred is in range; mode "raise" would copy through a temporary block
    u += np.take(bonus, state.preferred[block], axis=0, out=term, mode="clip")
    u += np.log(boost)
    if state.interaction is not None:
        interaction = cfg.interaction_weight * state.interaction[block, None]
        u += np.multiply(interaction, lognet, out=term)
    last = state.last_choice[block]
    loyal = np.flatnonzero(last >= 0)
    u[loyal, last[loyal]] += state.loyalty[block][loyal]
    u[:, ~state.active] = -np.inf
    return u


def _walk_blocks(state: SimState, boost: np.ndarray, rows: int, span: slice,
                 rng: np.random.Generator, choices: np.ndarray,
                 realized: np.ndarray) -> tuple[np.ndarray, bool]:
    """Walk the viewers of span, whole blocks of rows viewers but the last,
    in two (rows, N) buffers of its own: each block adds its noise, drawn
    from rng, to _systematic_utility and writes its picks to choices[block]
    and their values to realized[block]. Returns the span's (N,) audience
    counts and whether a block was redrawn with rng.gumbel."""
    n = state.cfg.n_streamers
    scale = state.cfg.random_effect_scale
    utility, scratch = np.empty((2, rows, n))
    picks = np.empty(rows, dtype=np.intp)
    row_index = np.arange(rows)

    counts = np.zeros(n, dtype=np.int64)
    redrawn = False
    for start in range(span.start, span.stop, rows):
        block = slice(start, min(start + rows, span.stop))
        k = block.stop - start
        u = _systematic_utility(state, boost, block, utility[:k], scratch[:k])
        if scale > 0:
            redrawn |= _gumbel_block(rng, scale, scratch[:k])
            u += scratch[:k]
        picked = np.argmax(u, axis=1, out=picks[:k])
        counts += np.bincount(picked, minlength=n)
        choices[block] = picked
        realized[block] = u[row_index[:k], picked]
    return counts, redrawn


def _choose_streamers(state: SimState, boost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every viewer picks the argmax of _systematic_utility, under the
    round's (N,) exposure boost, plus Gumbel noise; returns the round's (N,)
    audience counts and the (M,) realized utilities, the values there.

    The viewers are walked in row blocks of about _BLOCK_CELLS cells
    (min(M, _BLOCK_CELLS // N) rows, at least one), built in two (rows, N)
    buffers that a walk allocates and drops. They are one allocation:
    at M = 100,000 and N = 50, two separate ones made glibc give the heap
    back at the end of each round and fault about 385 pages in again on
    the next. Each cell goes through the same operations in the same order
    as a whole-matrix build, and drawing the noise block by block in row
    order consumes the generator exactly as one (M, N) draw does, so the
    result does not depend on the block size. A block's audience counts are
    added to the round's, and its picks overwrite state.last_choice[block]
    once its loyalty term has read it.

    The blocks are split into W = min(cpu_count(), blocks) contiguous
    ranges, each walked on its own thread with its own buffers and its own
    copy of the generator (the PCG64 one init_platform built), advanced to
    the range's first cell: rng.random reads one 64-bit output per double,
    so each thread draws the doubles a walk of every block would. The
    threads write their picks to a copy of last_choice, which replaces it
    once all have finished, their counts are summed in int64, and state.rng
    is left M N outputs further on (none without noise), with the 32-bit
    output that advance clears put back. With one thread (one CPU, or a
    pool worker) or one block, the calling thread walks the blocks with
    state.rng itself and never loads concurrent.futures.

    The noise is rng.gumbel's formula 0.0 - scale * log(-log(1.0 - d)),
    run op by op over a block of uniform doubles d from rng.random, so it
    reads the generator exactly as rng.gumbel does. Only the log differs:
    numpy's SIMD log rounds 1 ulp away from the C library's on about
    0.35 % of inputs. rng.gumbel rejects d == 0.0 and draws again, so a
    block holding a 0.0 is rewound to its saved generator state and
    redrawn with rng.gumbel itself. Every later draw then sits further on
    in the stream, so a round whose threads drew a 0.0 is dropped and
    walked again in the calling thread from the saved state. The
    generator's final state therefore matches one rng.gumbel draw. A
    realized value may differ from rng.gumbel's by at most
    4 eps (scale + |u| + |realized|), u the systematic utility of the
    chosen cell: at most 2 ulp unless the noise cancels the utility near
    zero. A choice could differ only where the best two totals lie that
    close; no test or benchmark run has shown one.
    """
    cfg = state.cfg
    n, m = cfg.n_streamers, cfg.n_viewers
    rows = min(max(1, _BLOCK_CELLS // n), m)
    blocks = -(-m // rows)
    workers = min(cpu_count(), blocks)
    realized = np.empty(m)
    if workers > 1:
        saved = state.rng.bit_generator.state
        bounds = [min(m, rows * (blocks * w // workers)) for w in range(workers + 1)]
        choices = np.empty_like(state.last_choice)

        def walk(span):
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = saved
            rng.bit_generator.advance(span.start * n)
            return _walk_blocks(state, boost, rows, span, rng, choices, realized)

        walks = map_in_threads(walk, [slice(*b) for b in zip(bounds, bounds[1:])], workers)
        if not any(redrawn for _, redrawn in walks):
            state.last_choice[:] = choices
            if cfg.random_effect_scale > 0:
                bit_generator = state.rng.bit_generator
                bit_generator.advance(m * n)
                bit_generator.state = {**bit_generator.state, "has_uint32": saved["has_uint32"],
                                       "uinteger": saved["uinteger"]}
            return sum(counts for counts, _ in walks), realized
    counts, _ = _walk_blocks(state, boost, rows, slice(0, m), state.rng, state.last_choice,
                             realized)
    return counts, realized


def run_round(state: SimState, cfg: SimConfig, round_idx: int) -> RoundRecord:
    """Advance the platform by one round.

    Order of events: the round's own levers start at the base commission,
    a boost of 1 and no subsidy, and each policy in force writes its lever;
    every viewer picks the argmax of utility plus Gumbel noise; money is
    split (the platform keeps the exact remainder, so revenue conservation
    is an identity); the mean realized utility is the round's satisfaction;
    qualities take one myopic profit-gradient step against decay, clamped
    to [0, 1]; streamers whose revenue stayed below the viability floor for
    exit_patience consecutive rounds leave the platform for good. cfg must
    be state.cfg, which the choice and policy steps read; another config
    raises DomainError rather than mixing two.
    """
    if cfg is not state.cfg:
        raise DomainError("run_round takes the config its state was built from")
    n, m = cfg.n_streamers, cfg.n_viewers

    share = np.full(n, cfg.base_revenue_share)
    boost = np.ones(n)
    subsidy = np.zeros(n)
    for policy in cfg.policy_schedule:
        if round_idx >= policy.start_round:
            apply_policy(policy, state, share, boost, subsidy)

    counts, realized = _choose_streamers(state, boost)

    r = cfg.revenue_per_viewer
    streamer_rev = (1.0 - share) * r * counts + subsidy
    platform_rev = r * m - float(streamer_rev.sum())

    mean_satisfaction = float(realized.mean())

    # Myopic investment responds to expected share gains at a fixed
    # reference audience, so incentives do not escalate with raw M.
    p_hat = counts / m
    marginal_audience = logit_slope(cfg.investment_audience_scale * state.mean_quality_sens, p_hat)
    if cfg.boost_investment:
        marginal_audience = marginal_audience * boost
    step = cfg.quality_responsiveness * (
        (1.0 - share) * r * marginal_audience
        - 2.0 * state.cost_coef * state.quality
    )
    # Per-round production capacity bound on organic investment.
    step = np.minimum(step, cfg.investment_step_cap)
    cannot_afford = streamer_rev < cfg.investment_min_revenue
    step = np.where(cannot_afford & (step > 0), 0.0, step)
    # Earmarked support converts directly into production capacity.
    step = step + cfg.subsidy_quality_efficiency * subsidy
    state.quality = np.clip(
        state.quality * (1.0 - cfg.quality_decay_rate) + step, 0.0, 1.0
    )

    lean = streamer_rev < cfg.exit_revenue_floor
    state.lean_rounds = np.where(state.active & lean, state.lean_rounds + 1, 0)
    newly_exited = state.active & (state.lean_rounds >= cfg.exit_patience)
    if newly_exited.any() and bool((state.active & ~newly_exited).any()):
        state.active &= ~newly_exited

    state.prev_counts = counts

    return RoundRecord(
        round_index=round_idx,
        viewer_counts=counts.copy(),
        streamer_revenues=streamer_rev,
        platform_revenue=platform_rev,
        qualities=state.quality.copy(),
        mean_satisfaction=mean_satisfaction,
    )


@dataclass(frozen=True)
class SimRun:
    """A completed simulation plus the context metrics need."""

    records: tuple[RoundRecord, ...]
    q_initial: np.ndarray


def simulate(cfg: SimConfig) -> SimRun:
    """Draw the population and run all rounds; deterministic per seed."""
    state = init_platform(cfg)
    q_initial = state.quality.copy()
    records = [run_round(state, cfg, idx) for idx in range(1, cfg.n_rounds + 1)]
    return SimRun(records=tuple(records), q_initial=q_initial)
