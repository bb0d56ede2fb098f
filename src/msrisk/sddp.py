"""SDDP for multistage programs with averaged-spectral-risk stage objectives.

``BoundIteration`` runs the passes and bounds and lays out the envelope LP of
the upper bound; the stage risk block plugs in: ``MarsrmSddp`` for the
averaged CVaR combination, :class:`msrisk.dr.DrSddp` for its worst case over
a moment ambiguity set.

For MARSRM the lower model keeps, per stage, a pool of aggregated cuts:
affine minorants of the stage's future-risk functional, built in the backward
pass from the equality-row duals of all scenario subproblems reweighted by
the CVaR dual maximizers of each level in the combination. The upper model
keeps, per stage, an archive of visited states with certified upper values
and evaluates a lower convex envelope of those points, penalizing the
distance to the convex hull in l1 norm with a constant dominating the
cost-to-go Lipschitz modulus. Both bounds are deterministic and converge in
finitely many iterations when the forward pass enumerates all scenarios.

Scenario subproblems inside one backward step are independent pure solves and
cut appends happen per stage in fixed scenario order, so results never depend
on execution schedule; a fixed seed reproduces runs bit-identically. Every LP
is solved on the calling thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .lp import LpError, LpModel, RecourseError, ResolvableLp, saved_note, solve_arrays
from .risk import (
    ArsrmWeights,
    PreferenceDistribution,
    UnsupportedConfigurationError,
    arsrm_weights,
)
from .scenario import RngStream, ScenarioLattice

CSV_HEADER = "cuts,lower,upper,gap,time_lower_s,time_upper_s"


def _require_equiprobable_stages(lattice: ScenarioLattice, combination: str) -> None:
    """Raise unless every stage ``2..T`` is equiprobable, as ``combination`` needs."""
    for t in range(2, lattice.horizon + 1):
        if not lattice.is_equiprobable(t):
            raise UnsupportedConfigurationError(
                f"stage {t} is not equiprobable; the {combination} is only "
                "defined on the equiprobable grid"
            )


def resolve_stage_weights(lattice: ScenarioLattice, prefs) -> dict[int, ArsrmWeights]:
    """Per-stage CVaR-combination weights for stages ``2..T``.

    ``prefs`` may be a single preference distribution (applied at every stage)
    or a sequence with one entry per stage ``2..T``. The combination route
    requires every stage to be equiprobable.
    """
    T = lattice.horizon
    _require_equiprobable_stages(lattice, "CVaR-combination reduction")
    if isinstance(prefs, PreferenceDistribution):
        plist = [prefs] * (T - 1)
    else:
        plist = list(prefs)
        if len(plist) != T - 1:
            raise ValueError(f"need one preference distribution per stage 2..{T}")
    return {t: arsrm_weights(lattice.size(t), plist[t - 2]) for t in range(2, T + 1)}


@dataclass(frozen=True)
class Cut:
    """Affine minorant ``intercept + gradient . x_prev`` of a cost-to-go."""

    intercept: float
    gradient: np.ndarray

    def __post_init__(self):
        g = np.array(self.gradient, dtype=float)
        if not np.all(np.isfinite(g)) or not np.isfinite(self.intercept):
            raise ValueError("cut coefficients must be finite")
        g.setflags(write=False)
        object.__setattr__(self, "gradient", g)


class CutPool:
    """Append-only pool of cuts for one stage, held as the arrays ``G`` (one
    gradient per row) and ``g`` (intercepts); ``add`` replaces both. Row 0 is
    the floor cut, zero gradient and intercept ``-big``, which keeps the
    stage LPs bounded before any real cut exists.
    """

    def __init__(self, state_dim: int, big: float):
        self.G = np.zeros((1, state_dim))
        self.g = np.array([-abs(big)])

    def add(self, cut: Cut) -> None:
        if cut.gradient.size != self.G.shape[1]:
            raise ValueError("cut gradient has wrong dimension")
        self.G = np.vstack([self.G, cut.gradient])
        self.g = np.append(self.g, cut.intercept)

    @property
    def cuts(self) -> list[Cut]:
        return [Cut(b, a) for b, a in zip(self.g, self.G)]

    @property
    def count(self) -> int:
        """Number of real (non-floor) cuts."""
        return self.g.size - 1

    def max_gradient_per_coordinate(self) -> np.ndarray:
        """The largest ``|gradient|`` per coordinate; the floor cut adds zeros."""
        return np.max(np.abs(self.G), axis=0)


LIPSCHITZ_SAFETY = 10.0
LIPSCHITZ_FLOOR = 1.0
MAX_ENUMERATED_STATES = 20_000  # per stage, under full enumeration


@dataclass
class TrainOptions:
    """Knobs for the bound iteration.

    ``lipschitz`` pins the envelope penalty per stage (scalar or one value per
    stage ``1..T-1``); left unset it defaults to ``LIPSCHITZ_SAFETY`` times
    the largest cut-gradient magnitude seen at the following stage, floored at
    ``LIPSCHITZ_FLOOR``. ``full_enumeration`` replaces sampling by a sweep of
    every scenario per stage, which makes the run deterministic and is what
    the finite-convergence guarantee assumes. Every iteration ends with an
    envelope sweep that certifies the states just visited; the last one
    re-certifies every state seen so far, so the last row carries the
    tightest bound available.
    """

    max_iterations: int = 100
    n_paths: int = 1
    tolerance: float = 1e-6
    big: float = 1e9
    seed: int = 0
    full_enumeration: bool = False
    lipschitz: Union[None, float, Sequence[float]] = None

    def check(self, horizon: int) -> None:
        """Raise ``ValueError`` unless the options fit a ``horizon``-stage run."""
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be at least 1, got {self.n_paths}")
        if self.lipschitz is not None:
            lip = np.asarray(self.lipschitz, dtype=float)
            if lip.ndim > 1 or (lip.ndim == 1 and lip.size != horizon - 1):
                raise ValueError(
                    f"lipschitz must be a scalar or {horizon - 1} values (stages 1..{horizon - 1})"
                )
            if not np.all(lip >= 0.0):
                raise ValueError("lipschitz values must be nonnegative")


@dataclass
class TrainReport:
    """Per-iteration bound trajectory; serializes to the bounds CSV schema."""

    cuts: list = field(default_factory=list)
    lower: list = field(default_factory=list)
    upper: list = field(default_factory=list)
    gap: list = field(default_factory=list)
    time_lower_s: list = field(default_factory=list)
    time_upper_s: list = field(default_factory=list)
    converged: bool = False

    def add_row(self, cuts, lower, upper, gap, t_lower, t_upper):
        self.cuts.append(int(cuts))
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.gap.append(float(gap))
        self.time_lower_s.append(float(t_lower))
        self.time_upper_s.append(float(t_upper))

    @property
    def iterations(self) -> int:
        return len(self.cuts)

    @property
    def final_lower(self) -> float:
        return self.lower[-1]

    @property
    def final_upper(self) -> float:
        return self.upper[-1]

    @property
    def final_gap(self) -> float:
        return self.gap[-1]

    def to_csv(self, path=None) -> str:
        lines = [CSV_HEADER]
        for i in range(self.iterations):
            lines.append(
                f"{self.cuts[i]},{self.lower[i]!r},{self.upper[i]!r},"
                f"{self.gap[i]!r},{self.time_lower_s[i]:.1f},{self.time_upper_s[i]:.1f}"
            )
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def state_key(x) -> bytes:
    """Hashable key of a state; -0.0 and 0.0 give the same key."""
    return (np.asarray(x, dtype=float) + 0.0).tobytes()


def _cut_rows(add, x, pools, epis, since):
    """Add each pool's cuts after its first ``since`` (-1: all, with the floor
    cut) as rows ``G x - epi <= -g`` through ``add``, a model's row method."""
    for pool, epi, done in zip(pools, epis, since):
        G, g = pool.G[done + 1 :], pool.g[done + 1 :]
        if g.size:
            add(np.append(x, epi), np.hstack([G, -np.ones((g.size, 1))]), -g)


def _dedupe(states: list[np.ndarray]) -> list[np.ndarray]:
    seen = {}
    for s in states:
        seen.setdefault(state_key(s), s)
    return list(seen.values())


class BoundIteration:
    """The SDDP bound iteration; subclasses supply the stage risk block.

    * ``_risk_block(model, t, x)``: adds the risk columns and rows of the
      stage-t lower LP to ``model``, after the decision columns ``x``, and
      returns each ``_stage_pools(t + 1)`` pool's epigraph column (``_cut_rows``);
    * ``_add_cuts(t, x_prev, vals, grads)``: cuts from the stage-t scenario
      values and gradients at ``x_prev``;
    * ``_risk_value(t, vals)``: the archived value from scenario upper values;
    * ``_envelope_block(model, t, values)``: adds the columns and ``<= 0``
      rows of one stage-t scenario's envelope LP after its ``x`` (see
      ``_envelope_values``), the same for every scenario, and returns the
      columns ``[lam_e, yp_e, ym_e]`` that ``values`` prices;
    * ``_stage_pools(t)``: the cut pools of stage t.

    Each engine binds the three passes in its own class body, so one
    engine's passes can be wrapped (to profile them, say) apart from the other's.
    ``BoundIteration`` builds every LP with ``LpModel``: it adds the
    decision columns ``x`` and the balance rows, the hooks add the rest. The upper
    sweep makes one envelope call per visited state. Where each scenario has
    its own envelope columns (DR below stage 1), the call re-solves one live
    model per scenario ``A`` and ``c``, warm, at each scenario's balance rhs;
    otherwise it solves the K scenario LPs as one block-diagonal LP. Each
    stage keeps one live model, re-solved warm per state and grown in place
    by its pools' new cuts; it is rebuilt when the scenario's ``A`` or ``c``
    change, or when HiGHS cannot hold it. Everything runs on the calling
    thread, one LP at a time.
    """

    def __init__(self, lattice: ScenarioLattice, options=None):
        self.lattice = lattice
        self.T = lattice.horizon
        self.options = options or TrainOptions()
        self.options.check(self.T)
        # archive[t]: visited x_t states with certified upper values of the
        # stage-(t+1) risk, keyed by state; revisits keep the lowest values
        self.archives = {t: {} for t in range(1, self.T)}
        # every state the forward passes have produced, per stage; the final
        # refresh re-certifies all of them against the current deeper envelopes
        self.visited = {t: {} for t in range(1, self.T)}
        self._forward_rng = RngStream(self.options.seed).generator("forward")
        self._live = {}  # t -> (A and c, pool counts, epigraph columns, ResolvableLp)
        self._envelopes = {}  # (t, archive, penalty) -> {A and c: ResolvableLp}, one key

    # -- stage solves --------------------------------------------------------
    def _stage_model(self, t, r, rhs, pools):
        """Scenario ``r``'s stage-t ``LpModel`` at the balance rhs, with the
        cuts of ``pools`` (none at stage T), and their epigraph columns."""
        model = LpModel()
        x = model.add_variables(r.num_vars, obj=r.c, lb=0.0)
        model.add_equality(x, r.A, rhs)
        epis = self._risk_block(model, t, x) if pools else []
        _cut_rows(model.add_inequality, x, pools, epis, [-1] * len(pools))
        return model, epis

    def _solve_stage(self, t, j, x_prev, need_duals=False):
        r = self.lattice.stage(t)[j]
        rhs, n = r.b - r.E @ x_prev, r.num_vars
        # one live model per stage, grown in place as its pools gain cuts
        pools = self._stage_pools(t + 1) if t < self.T else []
        key, counts = (r.A.tobytes(), r.c.tobytes()), [p.count for p in pools]
        held = self._live.get(t)
        if held is None or held[0] != key or not (held[3].grows or held[1] == counts):
            model, epis = self._stage_model(t, r, rhs, pools)
            lp = ResolvableLp(*model.arrays())
        else:
            _, before, epis, lp = held
            _cut_rows(lp.add_inequalities, np.arange(n), pools, epis, before)
        self._live[t] = (key, counts, epis, lp)
        sol = lp.solve(rhs)
        if not sol.is_optimal:
            note = saved_note(lp)
            if sol.status == "infeasible":
                raise RecourseError(
                    f"stage {t}, scenario {j}: subproblem infeasible at the visited "
                    f"state, contradicting relatively complete recourse{note}"
                )
            raise LpError(f"stage {t}, scenario {j}: LP is {sol.status}{note}")
        return float(sol.objective), sol.x[:n], sol.eq_duals if need_duals else None

    def _envelope_values(self, t, x_prev, archive, penalty):
        """Upper values of the stage-t scenarios at ``x_prev`` over the archive.

        ``archive`` holds the states ``X`` (one per row) and their values
        ``V``, a ``(P, E)`` array with one column per envelope (E=1 for
        MARSRM, one per next-stage scenario for DR). Scenario j's LP has the
        columns ``[x | risk columns | lam_e (P each) | yp_e | ym_e]``; for
        each e, ``-x + X' lam_e + yp_e - ym_e = 0`` and ``sum(lam_e) = 1``
        steer a convex combination of archived states to ``x``, and the
        envelope value ``V[:, e] . lam_e + M . (yp_e + ym_e)`` prices the l1
        slack at ``M = penalty`` (scalar or per coordinate), which must
        dominate the future risk's Lipschitz modulus for the value to stay an
        upper bound. The l1 rows and slacks exist only for coordinates with
        ``M > 0``: where the slack costs nothing, the row constrains nothing.
        ``_envelope_block`` says where the envelope values go.

        Only ``A``, ``c`` and the balance rhs differ between scenarios, the K
        scenario LPs share no row, and the l1 and ``sum(lam_e)`` rows are one
        block built once per call. With scenario-wise envelopes (E > 1) below
        stage 1, one live ``ResolvableLp`` per scenario ``A`` and ``c`` is
        held for a whole stage of a sweep (while ``t``, the archive and the
        penalty stand) and re-solved warm at each balance rhs; the first
        scenario that is not optimal raises the ``RecourseError``, with its
        model saved. Otherwise (E = 1, or the one stage-1 LP per sweep) the K
        LPs are solved cold as one block-diagonal LP, and scenario j's value
        is ``c_j . x_j`` over its block; if that LP is not optimal, each
        scenario's LP is solved on its own, in order, and the first failing
        one raises, with its LP alone saved.
        """
        reals = self.lattice.stage(t)
        K, n = len(reals), self.lattice.num_vars(t)
        X, V = archive
        V = np.reshape(V, (len(X), -1))
        P, E = V.shape
        M = np.broadcast_to(penalty, (n,))
        priced = np.flatnonzero(M > 0.0)  # the coordinates with l1 rows
        q = priced.size
        # row e of values: V[:, e] over lam_e, the penalty over yp_e and over ym_e
        lam, slack, diag = np.zeros((E, E, P)), np.zeros((E, E, q)), np.arange(E)
        lam[diag, diag], slack[diag, diag] = V.T, M[priced]
        values = np.hstack([lam.reshape(E, -1), slack.reshape(E, -1), slack.reshape(E, -1)])
        # one block of the l1 rows, then the sum(lam_e) rows, over [x[priced], lam, yp, ym]
        Iq, Ieq, Ie = np.eye(q), np.eye(E * q), np.eye(E)
        l1 = np.hstack([-np.tile(Iq, (E, 1)), np.kron(Ie, X[:, priced].T), Ieq, -Ieq])
        sums = np.hstack([np.zeros((E, q)), np.kron(Ie, np.ones(P)), np.zeros((E, 2 * E * q))])
        tail, b_tail = np.vstack([l1, sums]), np.r_[np.zeros(E * q), np.ones(E)]

        def arrays(js):
            model = LpModel()
            for j in js:
                r = reals[j]
                x = model.add_variables(n, obj=r.c, lb=0.0)
                model.add_equality(x, r.A, r.b - r.E @ x_prev)
                w = self._envelope_block(model, t, values)
                model.add_equality(np.concatenate([x[priced], w]), tail, b_tail)
            return model.arrays()

        if t > 1 and E > 1:  # live models, one per scenario A and c
            key = (t, X.tobytes(), V.tobytes(), M.tobytes())
            if key not in self._envelopes:
                self._envelopes.clear()
            held = self._envelopes.setdefault(key, {})
            objectives = np.empty(K)
            for j, r in enumerate(reals):
                own = (r.A.tobytes(), r.c.tobytes())
                if own not in held:
                    held[own] = ResolvableLp(*arrays([j]))
                lp = held[own]
                sol = lp.solve(np.r_[r.b - r.E @ x_prev, b_tail])
                if not sol.is_optimal:
                    raise RecourseError(
                        f"stage {t}, scenario {j}: upper envelope LP is {sol.status}{saved_note(lp)}"
                    )
                objectives[j] = sol.objective
            return objectives
        block = arrays(range(K))
        sol = solve_arrays(*block)
        if sol.is_optimal:
            return np.array([c @ x for c, x in zip(np.split(block[0], K), np.split(sol.x, K))])
        # one LP per scenario, so the error names the first that fails
        objectives = []
        for j in range(K):
            own = arrays([j])
            sol = solve_arrays(*own)
            if not sol.is_optimal:
                note = saved_note(ResolvableLp(*own))
                raise RecourseError(
                    f"stage {t}, scenario {j}: upper envelope LP is {sol.status}{note}"
                )
            objectives.append(sol.objective)
        return np.array(objectives)

    # -- penalty selection -----------------------------------------------------
    def _coupled_columns(self, t: int) -> np.ndarray:
        """Mask of stage-t decision coordinates the next stage actually reads.

        Columns that are zero in every next-stage coupling matrix provably
        cannot move the cost-to-go, so their envelope penalty is exactly zero.
        """
        read = [np.any(r.E != 0.0, axis=0) for r in self.lattice.stage(t + 1)]
        return np.any(read, axis=0).astype(float)

    def _penalty(self, t: int) -> np.ndarray:
        opt = self.options
        mask = self._coupled_columns(t)
        if opt.lipschitz is not None:
            lip = np.asarray(opt.lipschitz, dtype=float)
            return float(lip if lip.ndim == 0 else lip[t - 1]) * mask
        observed = np.max(
            [p.max_gradient_per_coordinate() for p in self._stage_pools(t + 1)], axis=0
        )
        return np.maximum(LIPSCHITZ_FLOOR * mask, LIPSCHITZ_SAFETY * observed)

    # -- passes ------------------------------------------------------------------
    def forward_pass(self):
        """Solve stage 1 (the iteration's lower bound), then sample or sweep.

        Returns ``(lower_bound, states)`` where ``states[t]`` lists the
        distinct stage-t decisions visited, for ``t = 1..T-1``; all of them
        are also recorded for the final refresh.
        """
        v1, x1, _ = self._solve_stage(1, 0, self.lattice.x0)
        states = {1: [x1]}
        if self.T > 2:
            if self.options.full_enumeration:
                for t in range(2, self.T):
                    nxt = []
                    for x_prev in states[t - 1]:
                        for j in range(self.lattice.size(t)):
                            _, x, _ = self._solve_stage(t, j, x_prev)
                            nxt.append(x)
                    states[t] = _dedupe(nxt)
                    if len(states[t]) > MAX_ENUMERATED_STATES:
                        raise ValueError(
                            f"full enumeration visits {len(states[t])} states at stage "
                            f"{t}, more than {MAX_ENUMERATED_STATES}; sample paths instead"
                        )
            else:
                per_stage = {t: [] for t in range(2, self.T)}
                for _ in range(self.options.n_paths):
                    x = x1
                    for t in range(2, self.T):
                        j = int(self._forward_rng.integers(self.lattice.size(t)))
                        _, x, _ = self._solve_stage(t, j, x)
                        per_stage[t].append(x)
                for t in range(2, self.T):
                    states[t] = _dedupe(per_stage[t])
        for t, group in states.items():
            for x in group:
                self.visited[t].setdefault(state_key(x), x)
        return v1, states

    def backward_pass(self, states):
        """Solve every scenario at each visited state, from T down, and cut."""
        for t in range(self.T, 1, -1):
            K = self.lattice.size(t)
            reals = self.lattice.stage(t)
            for x_prev in states[t - 1]:
                vals = np.empty(K)
                grads = np.zeros((K, x_prev.size))
                for j in range(K):
                    v, _, duals = self._solve_stage(t, j, x_prev, need_duals=True)
                    vals[j] = v
                    grads[j] = -(duals @ reals[j].E)
                self._add_cuts(t, x_prev, vals, grads)

    def upper_sweep(self, states=None) -> float:
        """Certify upper values bottom-up and bound stage 1.

        With ``states`` given (one list per stage), only those are evaluated:
        the cheap incremental form, which still improves recurring states
        because the archives keep the lowest certified value per state. With
        ``states=None`` every state ever visited is re-certified against the
        current deeper archives, which removes all staleness and is done once
        before reporting a final bound.
        """
        for t in range(self.T, 1, -1):
            K = self.lattice.size(t)
            if t < self.T:
                archive, penalty = self._archive_arrays(t), self._penalty(t)
            group = list(self.visited[t - 1].values()) if states is None else states[t - 1]
            for x_prev in group:
                if t == self.T:  # the exact stage LP is the terminal upper value
                    vals = np.array([self._solve_stage(t, j, x_prev)[0] for j in range(K)])
                else:
                    vals = self._envelope_values(t, x_prev, archive, penalty)
                self._archive_store(t - 1, x_prev, self._risk_value(t, vals))
        (upper,) = self._envelope_values(
            1, self.lattice.x0, self._archive_arrays(1), self._penalty(1)
        )
        return float(upper)

    def _archive_store(self, t, x, value):
        """Keep the lowest value per state: a scalar, or one per scenario."""
        key = state_key(x)
        entry = self.archives[t].get(key)
        if entry is not None:
            if np.all(value >= entry[1]):
                return
            value = np.minimum(entry[1], value)
        self.archives[t][key] = (x, value)

    def _archive_arrays(self, t):
        """The stage-t archive: its states ``X`` (one per row) and their values."""
        if not self.archives[t]:
            raise ValueError(f"stage {t} archive is empty")
        X, V = zip(*self.archives[t].values())
        return np.vstack(X), np.array(V)

    # -- driver ---------------------------------------------------------------
    def run(self) -> TrainReport:
        report = TrainReport()
        best_upper = np.inf
        for i in range(1, self.options.max_iterations + 1):
            t0 = time.perf_counter()
            lower, states = self.forward_pass()
            self.backward_pass(states)
            t_lower = time.perf_counter() - t0
            t1 = time.perf_counter()
            # the last sweep re-certifies every state seen so far
            raw_upper = self.upper_sweep(None if i == self.options.max_iterations else states)
            t_upper = time.perf_counter() - t1
            best_upper = min(best_upper, raw_upper)
            gap = best_upper - lower
            cuts = max(p.count for t in range(2, self.T + 1) for p in self._stage_pools(t))
            report.add_row(cuts, lower, best_upper, gap, t_lower, t_upper)
            if gap <= self.options.tolerance:
                report.converged = True
                break
        return report


class MarsrmSddp(BoundIteration):
    """Single-cut MARSRM: one epigraph column over the aggregated cuts."""

    def __init__(self, lattice: ScenarioLattice, prefs, options=None):
        super().__init__(lattice, options)
        self.weights = resolve_stage_weights(lattice, prefs)
        big = self.options.big
        self.pools = {
            t: CutPool(lattice.num_vars(t - 1), big) for t in range(2, self.T + 1)
        }

    forward_pass = BoundIteration.forward_pass
    backward_pass = BoundIteration.backward_pass
    upper_sweep = BoundIteration.upper_sweep

    def _stage_pools(self, t):
        return [self.pools[t]]

    def _risk_block(self, model, t, x):
        """One epigraph column theta over the cuts."""
        return [model.add_variable(obj=1.0, lb=None)]

    def _add_cuts(self, t, x_prev, vals, grads):
        """One aggregated cut: the gradients reweighted by the CVaR duals."""
        K = vals.size
        omega = self.weights[t].scenario_reweighting(vals)
        G = (omega / K) @ grads
        value = float(omega @ vals / K)
        self.pools[t].add(Cut(value - G @ x_prev, G))

    def _risk_value(self, t, vals):
        return self.weights[t].aggregate(vals)

    def _envelope_block(self, model, t, values):
        """The one envelope value is the objective; no risk columns or rows."""
        (cost,) = values
        return model.add_variables(cost.size, obj=cost, lb=0.0)


def train(lattice, prefs, options=None) -> TrainReport:
    """Run the bound iteration until the gap closes or iterations run out.

    Nonconvergence within the iteration budget is reported through
    ``TrainReport.converged``, not raised.
    """
    return MarsrmSddp(lattice, prefs, options=options).run()
