import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actris import circuit
from actris.ao import random_init
from actris.benchmarks import (
    BenchmarkResult,
    _CircuitSearchSpace,
    budget_from_ao,
    run_ga,
    run_paido,
    run_pso,
)
from actris.channel import MimoChannels, ScenarioConfig, rate_lmmse, sample_channels
from actris.constraints import validate_design
from actris.do import run_do
from actris.errors import InfeasibleBudgetError
from actris.harness import (ExperimentSpec, SchemeVariant, export_csv, run_experiment, run_scheme,
                            trial_channels)
from actris.reflection import ElementFits, delivered_design, normalized_amplitude
from conftest import desk_scenario

TWO_PI = 2.0 * np.pi


class TestBudget:
    def test_matches_ao_complexity_within_ten_percent(self, scenario_desk):
        b = budget_from_ao(scenario_desk, j_alt=20, j_p=2)
        unit = (
            scenario_desk.n * scenario_desk.m_t * scenario_desk.m_r
            + scenario_desk.d * scenario_desk.m_r**3
        )
        assert abs(b.k * b.p * unit - b.target) / b.target <= 0.10

    def test_paper_scale_budget(self):
        sc = ScenarioConfig()
        b = budget_from_ao(sc, j_alt=20, j_p=2)
        unit = sc.n * sc.m_t * sc.m_r + sc.d * sc.m_r**3
        assert abs(b.k * b.p * unit - b.target) / b.target <= 0.10


class TestPaido:
    def test_valid_output(self, fits_all_active, scenario_desk):
        rng = np.random.default_rng(1)
        ch = sample_channels(scenario_desk, rng)
        res = run_paido(scenario_desk, ch, fits_all_active, rng)
        assert validate_design(scenario_desk, fits_all_active, res.v, res.design) == []

    def test_usually_below_coupled_design(self, fits_all_active, scenario_desk):
        rates_do = []
        rates_paido = []
        for t in range(12):
            rng_ch = np.random.default_rng(1000 + t)
            ch = sample_channels(scenario_desk, rng_ch)
            for scheme, rates in (("DO", rates_do), ("PAIDO", rates_paido)):
                rates.append(run_scheme(scheme, scenario_desk, ch, fits_all_active,
                                        np.random.default_rng(t))[0])
        assert np.mean(rates_paido) <= np.mean(rates_do)

    def test_clamping_reduces_reflection_on_constructed_toy(self, active_fit, passive_fit):
        # one element, direct path present: the phase stage aligns the
        # reflection with a direct-path phase placed where the true amplitude
        # band collapses, so the clamp must bite hard
        fits = ElementFits.from_classes(active_fit, passive_fit, np.ones(1, dtype=bool))
        sc = ScenarioConfig(m_t=1, m_r=1, d=1, n=1, n_act=1, p_t_w=1.0,
                            sigma2_w=1e-3, f_r=2.0, f_s=1.5, p_ris_w=0.05)
        trough = (-active_fit.theta + np.pi) % TWO_PI
        h1 = np.array([[1.0 + 0j]])
        h2 = np.array([[1.0 + 0j]])
        hd = np.array([[np.exp(1j * trough)]])
        ch = MimoChannels(h_d=hd, h_1=h1, h_2=h2)
        res = run_paido(sc, ch, fits, np.random.default_rng(0))
        phase_err = abs((res.design.phi[0] - trough + np.pi) % TWO_PI - np.pi)
        assert phase_err < 0.2
        assert abs(res.design.gamma[0]) < 2.0  # frozen value was beta_max ~ 30


class TestPhaseSolveTolerance:
    """AO solves each phase step to max(eps / 100, 1e-6); DO and PAIDO, whose
    phases are the delivered design, pass no tol and keep the solver's 1e-6.
    do.py imports the solver by name, so both module names are patched."""

    @staticmethod
    def _recorded_tols(monkeypatch):
        import inspect

        from actris import ao, do

        solve = ao.rmo_phase_opt
        signature = inspect.signature(solve)
        assert signature.parameters["tol"].default == 1e-6
        tols = []

        def recording(*args, **kwargs):
            tols.append(signature.bind(*args, **kwargs).arguments.get("tol"))
            return solve(*args, **kwargs)

        monkeypatch.setattr(ao, "rmo_phase_opt", recording)
        monkeypatch.setattr(do, "rmo_phase_opt", recording)
        return tols

    @pytest.mark.parametrize("run", [run_do, run_paido], ids=["DO", "PAIDO"])
    def test_decoupled_designs_keep_the_default(self, monkeypatch, fits_all_active,
                                                scenario_desk, run):
        tols = self._recorded_tols(monkeypatch)
        ch = sample_channels(scenario_desk, np.random.default_rng(61))
        run(scenario_desk, ch, fits_all_active, np.random.default_rng(62))
        assert tols == [None]

    def test_ao_schemes_pass_a_hundredth_of_the_default_eps(self, monkeypatch, fits_all_active,
                                                          scenario_desk):
        tols = self._recorded_tols(monkeypatch)
        ch = sample_channels(scenario_desk, np.random.default_rng(63))
        _, _, _, iterations = run_scheme("AO", scenario_desk, ch, fits_all_active,
                                         np.random.default_rng(64), j_alt=3)
        # AO's DO start passes none, then one phase solve per outer iteration
        assert tols == [None] + [1e-5] * iterations
        tols.clear()
        _, _, _, iterations = run_scheme("AO-random-init", scenario_desk, ch, fits_all_active,
                                         np.random.default_rng(64), j_alt=3)
        assert tols == [1e-5] * iterations


class TestMetaheuristics:
    def _setup(self, seed):
        sc = desk_scenario()
        rng = np.random.default_rng(seed)
        ch = sample_channels(sc, rng)
        return sc, ch

    def test_ga_valid_and_deterministic(self, fits_all_active):
        sc, ch = self._setup(2)
        budget = budget_from_ao(sc, j_alt=4, j_p=1)
        a = run_ga(sc, ch, fits_all_active, budget, np.random.default_rng(7))
        b = run_ga(sc, ch, fits_all_active, budget, np.random.default_rng(7))
        assert a.rate == b.rate
        assert np.array_equal(a.design.gamma, b.design.gamma)
        assert validate_design(sc, fits_all_active, a.v, a.design) == []

    def test_ga_improves_with_more_generations(self, fits_all_active):
        import dataclasses

        sc, ch = self._setup(3)
        budget1 = dataclasses.replace(budget_from_ao(sc, j_alt=4, j_p=1), p=1)
        budget5 = dataclasses.replace(budget_from_ao(sc, j_alt=4, j_p=1), p=6)
        r1 = run_ga(sc, ch, fits_all_active, budget1, np.random.default_rng(9))
        r5 = run_ga(sc, ch, fits_all_active, budget5, np.random.default_rng(9))
        assert r5.rate >= r1.rate - 1e-12

    def test_pso_valid_and_deterministic(self, fits_all_active):
        sc, ch = self._setup(4)
        budget = budget_from_ao(sc, j_alt=4, j_p=1)
        a = run_pso(sc, ch, fits_all_active, budget, np.random.default_rng(11))
        b = run_pso(sc, ch, fits_all_active, budget, np.random.default_rng(11))
        assert a.rate == b.rate
        assert validate_design(sc, fits_all_active, a.v, a.design) == []

    def test_pso_improves_with_more_iterations(self, fits_all_active):
        import dataclasses

        sc, ch = self._setup(5)
        base = budget_from_ao(sc, j_alt=4, j_p=1)
        r1 = run_pso(sc, ch, fits_all_active, dataclasses.replace(base, p=1),
                     np.random.default_rng(13))
        r6 = run_pso(sc, ch, fits_all_active, dataclasses.replace(base, p=6),
                     np.random.default_rng(13))
        assert r6.rate >= r1.rate - 1e-12

    def test_ga_draw_order(self, fits_all_active):
        import dataclasses

        sc, ch = self._setup(2)
        budget = dataclasses.replace(budget_from_ao(sc, j_alt=4, j_p=1), p=2)
        rng = np.random.default_rng(21)
        run_ga(sc, ch, fits_all_active, budget, rng)
        space = _CircuitSearchSpace(sc, ch, fits_all_active)
        k, dim = budget.k, space.dim
        want = np.random.default_rng(21)
        want.uniform(space.lower, space.upper, size=(k, dim))
        want.integers(0, k, size=(2, k - 1, 2))
        want.uniform(0.0, 1.0, size=(k - 1, dim))
        want.uniform(size=(k - 1, dim))
        want.standard_normal((k - 1, dim))
        assert rng.bit_generator.state == want.bit_generator.state

    def test_budget_below_minimum_bias_raises(self, fits_all_active, tmp_path):
        # half the minimum-bias power of the 16 active cells: no repair can
        # meet it, so the searches must stop with the cause instead of
        # relaxing cells already at the floor forever
        def timed_out(signum, frame):
            raise TimeoutError("the search did not return on an unmeetable budget")

        params = desk_scenario().circuit
        p_floor = circuit.power_consumption(circuit.diode_band(params)[1], params)
        sc = desk_scenario(p_ris_w=0.5 * 16 * p_floor)
        ch = sample_channels(sc, np.random.default_rng(8))
        budget = budget_from_ao(sc, j_alt=4, j_p=1)
        schemes = ("AO", "AO-random-init", "DO", "PAIDO", "GA", "PSO")
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(30)
        try:
            for runner in (run_ga, run_pso):
                with pytest.raises(InfeasibleBudgetError):
                    runner(sc, ch, fits_all_active, budget, np.random.default_rng(9))
            spec = ExperimentSpec(scenario=sc, variants=tuple(SchemeVariant(s, s) for s in schemes),
                                  trials=1, j_alt=4)
            export_csv(run_experiment(spec), tmp_path / "rows.csv")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        cells = [line.split(",")[1] for line in (tmp_path / "rows.csv").read_text().splitlines()]
        assert cells[1:] == [f"{s}!InfeasibleBudgetError" for s in schemes]

    def test_budget_just_below_minimum_bias_names_it_in_every_scheme(self, fits_all_active):
        # 0.999 of the minimum-bias power of the 16 active cells: the surface
        # repair of AO, AO-random-init, DO and PAIDO and the GA/PSO relax
        # state the one cause in the same words
        params = desk_scenario().circuit
        p_floor = 16 * circuit.power_consumption(circuit.diode_band(params)[1], params)
        sc = desk_scenario(p_ris_w=0.999 * p_floor)
        ch = sample_channels(sc, np.random.default_rng(8))
        message = (f"surface budget {sc.p_ris_w:.6g} W is below the minimum-bias power "
                   f"{p_floor:.6g} W of the 16 active cells")
        for k, scheme in enumerate(("AO", "AO-random-init", "DO", "PAIDO", "GA", "PSO")):
            with pytest.raises(InfeasibleBudgetError) as err:
                run_scheme(scheme, sc, ch, fits_all_active, np.random.default_rng(k), j_alt=4)
            assert str(err.value) == message, scheme

    def test_repair_skips_the_exact_power_at_the_desk_budget(self, fits_all_active, monkeypatch):
        # no row of a desk run comes near the surface budget, so the only
        # exact powers are the floor, the ceiling table and the winner's total
        sc, ch = self._setup(2)
        budget = budget_from_ao(sc)
        power, repair = circuit.power_consumption, _CircuitSearchSpace.repair
        calls = {"repair": 0, "inside": 0, "outside": 0}
        where = ["outside"]

        def counted_power(*args):
            calls[where[-1]] += 1
            return power(*args)

        def counted_repair(space, x):
            calls["repair"] += 1
            where.append("inside")
            try:
                return repair(space, x)
            finally:
                where.pop()

        monkeypatch.setattr(circuit, "power_consumption", counted_power)
        monkeypatch.setattr(_CircuitSearchSpace, "repair", counted_repair)
        run_ga(sc, ch, fits_all_active, budget, np.random.default_rng(7))
        assert calls["repair"] == budget.p
        assert calls["inside"] == 0
        assert 1 <= calls["outside"] <= 3

    def test_repair_respects_both_budgets(self, fits_all_active):
        sc, ch = self._setup(6)
        budget = budget_from_ao(sc, j_alt=4, j_p=1)
        res = run_ga(sc, ch, fits_all_active, budget, np.random.default_rng(15))
        tx = np.trace(res.v.conj().T @ res.v).real
        assert tx <= sc.p_t_w + 1e-9
        assert res.design.ris_power_w <= sc.p_ris_w + 1e-9
        rs = np.array([c.r for c in res.design.cells])
        from actris import circuit

        band_lo = circuit.stable_resistance(1.0, sc.circuit)
        band_hi = circuit.stable_resistance(3.0, sc.circuit)
        assert np.all(rs[res.design.active_mask] >= band_lo - 1e-12)
        assert np.all(rs[res.design.active_mask] <= band_hi + 1e-12)


class _SequentialSpace:
    """Reference search space: decodes, repairs and scores one individual at
    a time, the loop that the population path of _CircuitSearchSpace
    replaced. Counts how often each repair branch fires."""

    def __init__(self, scenario, ch, fits):
        self.space = _CircuitSearchSpace(scenario, ch, fits)
        self.rescaled = 0
        self.relaxed = 0

    def decode(self, x):
        sp = self.space
        r = np.full(sp.n, sp.params.r_passive)
        r[sp.active] = x[: sp.n_act]
        c = x[sp.n_act : sp.n_act + sp.n]
        vflat = x[sp.n_act + sp.n :]
        v = (vflat[0::2] + 1j * vflat[1::2]).reshape(sp.scenario.m_t, sp.scenario.d)
        return r, c, v

    def encode(self, r, c, v):
        vflat = np.empty(2 * v.size)
        vflat[0::2] = v.real.ravel()
        vflat[1::2] = v.imag.ravel()
        return np.concatenate([r[self.space.active], c, vflat])

    def repair(self, x):
        sp = self.space
        x = np.clip(x, sp.lower, sp.upper)
        r, c, v = self.decode(x)
        # the transmit power summed as the population repair sums it, over
        # the interleaved genes of a one-row stack
        genes = x[None, sp.n_act + sp.n :]
        tx = np.einsum("ij,ij->i", genes, genes)[0]
        if tx > sp.scenario.p_t_w:
            self.rescaled += 1
            v = v * np.sqrt(sp.scenario.p_t_w / tx)
        # a realized (R, C) has a real root of its phase quadratic: |R| <= F(arg gamma)
        gamma = circuit.reflection(sp.params, r, c)
        assert np.all(np.abs(r) <= circuit.resistance_range(sp.params, np.angle(gamma) % TWO_PI))
        # r[None] is a view: the one row relaxes in place
        self.relaxed += bool(circuit.relax_to_budget(sp.params, r[None], sp.scenario.p_ris_w)[0])
        gamma = circuit.reflection(sp.params, r, c)
        return self.encode(r, c, v), r, c, v, gamma

    def fitness(self, x):
        x, r, c, v, gamma = self.repair(x)
        return x, rate_lmmse(self.space.ch, v, gamma, self.space.scenario), (r, c, v, gamma)


def _expected_result(space, phenotype, rate, iterations):
    """The result built from the winner's own (r, c, v), which the searches
    recover by decoding its repaired decision vector."""
    r, c, v, _ = phenotype
    return BenchmarkResult(v=v, design=delivered_design(space.params, space.fits, r, c),
                           rate=rate, iterations=iterations)


def _reference_ga(seq, budget, rng):
    space = seq.space
    k, p = budget.k, budget.p
    pop = [rng.uniform(space.lower, space.upper) for _ in range(k)]
    fitness = np.empty(k)
    phenos = [None] * k
    for i in range(k):
        pop[i], fitness[i], phenos[i] = seq.fitness(pop[i])
    sigma = 0.05 * (space.upper - space.lower)
    best_idx = int(np.argmax(fitness))
    best = (fitness[best_idx], phenos[best_idx])
    for _ in range(p - 1):
        order = np.argsort(fitness)[::-1]
        elite = pop[order[0]].copy()
        elite_fit, elite_pheno = fitness[order[0]], phenos[order[0]]
        pairs = rng.integers(0, k, size=(2, k - 1, 2))
        u = rng.uniform(0.0, 1.0, size=(k - 1, space.dim))
        mutate = rng.uniform(size=(k - 1, space.dim)) < 1.0 / space.dim
        noise = rng.standard_normal((k - 1, space.dim))
        children = [elite]
        for c in range(k - 1):
            ia, ib = pairs[0, c]
            pa = pop[ia] if fitness[ia] >= fitness[ib] else pop[ib]
            ia, ib = pairs[1, c]
            pb = pop[ia] if fitness[ia] >= fitness[ib] else pop[ib]
            child = u[c] * pa + (1.0 - u[c]) * pb
            child = np.where(mutate[c], child + sigma * noise[c], child)
            children.append(np.clip(child, space.lower, space.upper))
        pop = children
        fitness[0], phenos[0] = elite_fit, elite_pheno
        for i in range(1, k):
            pop[i], fitness[i], phenos[i] = seq.fitness(pop[i])
        gen_best = int(np.argmax(fitness))
        if fitness[gen_best] > best[0]:
            best = (fitness[gen_best], phenos[gen_best])
    return _expected_result(space, best[1], float(best[0]), p)


def _reference_pso(seq, budget, rng):
    space = seq.space
    k, p = budget.k, budget.p
    omega, c1, c2 = 0.72, 1.49, 1.49
    x = np.array([rng.uniform(space.lower, space.upper) for _ in range(k)])
    vel = np.zeros_like(x)
    span = space.upper - space.lower
    pbest = x.copy()
    pbest_fit = np.full(k, -np.inf)
    gbest, gbest_fit, gbest_pheno = None, -np.inf, None
    for i in range(k):
        x[i], fit, pheno = seq.fitness(x[i])
        pbest[i] = x[i]
        pbest_fit[i] = fit
        if fit > gbest_fit:
            gbest_fit, gbest, gbest_pheno = fit, x[i].copy(), pheno
    for _ in range(p - 1):
        for i in range(k):
            r1 = rng.uniform(size=space.dim)
            r2 = rng.uniform(size=space.dim)
            vel[i] = omega * vel[i] + c1 * r1 * (pbest[i] - x[i]) + c2 * r2 * (gbest - x[i])
            vel[i] = np.clip(vel[i], -span, span)
            x[i] = np.clip(x[i] + vel[i], space.lower, space.upper)
            x[i], fit, pheno = seq.fitness(x[i])
            if fit > pbest_fit[i]:
                pbest_fit[i] = fit
                pbest[i] = x[i].copy()
            if fit > gbest_fit:
                gbest_fit, gbest, gbest_pheno = fit, x[i].copy(), pheno
    return _expected_result(space, gbest_pheno, float(gbest_fit), p)


class TestPopulationOracle:
    """GA and PSO score whole populations at once; the results must carry the
    same bits as the one-individual-at-a-time reference loops."""

    def _compare(self, scenario, seed, budget, fits_of):
        ch, mask = trial_channels(scenario, seed, 0, 0)
        fits = fits_of(mask)
        seqs = []
        for runner, reference in ((run_ga, _reference_ga), (run_pso, _reference_pso)):
            got = runner(scenario, ch, fits, budget, np.random.default_rng(seed))
            seq = _SequentialSpace(scenario, ch, fits)
            want = reference(seq, budget, np.random.default_rng(seed))
            assert got.rate == want.rate
            assert got.v.tobytes() == want.v.tobytes()
            for name in ("gamma", "phi", "alpha_bar", "r", "c"):
                assert getattr(got.design, name).tobytes() == getattr(want.design, name).tobytes()
            assert got.design.ris_power_w == want.design.ris_power_w
            seqs.append(seq)
        return seqs

    @pytest.fixture
    def fits_of(self, active_fit, passive_fit):
        return lambda mask: ElementFits.from_classes(active_fit, passive_fit, mask)

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_desk_seeds(self, fits_of, seed):
        sc = desk_scenario()
        self._compare(sc, seed, budget_from_ao(sc), fits_of)

    def test_tight_surface_budget_runs_the_repair_loop(self, fits_of):
        sc = desk_scenario(p_ris_w=0.2)
        budget = budget_from_ao(sc, j_alt=6, j_p=1)
        seqs = self._compare(sc, 5, budget, fits_of)
        assert all(seq.relaxed > 0 for seq in seqs)

    def test_rows_inside_the_ceiling_slack_take_the_exact_path(self, fits_of, monkeypatch):
        # the budget sits between the exact and the ceiling total of one row
        # of the initial population: the screen sends that row to the exact
        # power, which finds nothing to relax
        import dataclasses

        seed = 5
        sc = desk_scenario()
        budget = budget_from_ao(sc, j_alt=6, j_p=1)
        ch, mask = trial_channels(sc, seed, 0, 0)
        space = _CircuitSearchSpace(sc, ch, fits_of(mask))
        x = np.random.default_rng(seed).uniform(space.lower, space.upper,
                                                size=(budget.k, space.dim))
        r = space.decode(x)[0][:, space.active]
        exact = circuit.power_consumption(r, sc.circuit).sum(axis=1)
        ceiling = circuit.power_ceiling(sc.circuit)(r).sum(axis=1)
        row = np.argsort(exact)[budget.k // 2]
        sc = dataclasses.replace(sc, p_ris_w=0.5 * (exact[row] + ceiling[row]))
        assert exact[row] < sc.p_ris_w < ceiling[row]

        relax = circuit.relax_to_budget
        totals = []

        def recorded_relax(params, rows, budget):
            totals.extend(circuit.power_consumption(rows, params).sum(axis=1))
            return relax(params, rows, budget)

        monkeypatch.setattr(circuit, "relax_to_budget", recorded_relax)
        self._compare(sc, seed, budget, fits_of)
        totals = np.array(totals)
        slack = totals <= sc.p_ris_w + 1e-12
        assert slack.any() and not slack.all()
        assert np.min(np.abs(totals - exact[row])) <= 1e-15 * exact[row]

    def test_best_individual_is_a_bred_child(self, fits_of):
        import dataclasses

        sc = desk_scenario(p_ris_w=0.2, n_act=11)
        budget = budget_from_ao(sc, j_alt=20, j_p=1)
        ch, mask = trial_channels(sc, 5, 0, 0)
        fits = fits_of(mask)
        initial = run_ga(sc, ch, fits, dataclasses.replace(budget, p=1), np.random.default_rng(5))
        bred = run_ga(sc, ch, fits, budget, np.random.default_rng(5))
        # precondition: the best individual comes from a bred generation
        assert bred.rate > initial.rate
        self._compare(sc, 5, budget, fits_of)

    def test_transmit_rescale_and_partly_passive_surface(self, fits_of):
        sc = desk_scenario(n_act=11)
        budget = budget_from_ao(sc, j_alt=6, j_p=1)
        seqs = self._compare(sc, 8, budget, fits_of)
        assert all(seq.rescaled > 0 for seq in seqs)


@st.composite
def repair_populations(draw):
    """(scenario, seed, row kinds): a desk surface, fully or partly active,
    at the desk or a 0.2 W surface budget, and a population mixing rows
    drawn over (and past) the box, rows whose precoder repair rescales into
    the transmit budget, rows whose cells draw the most power, which repair
    relaxes whenever the budget is below that, and rows repair leaves alone."""
    n_act = draw(st.sampled_from([16, 11]))
    p_ris_w = draw(st.sampled_from([0.375, 0.2]))
    kinds = draw(st.lists(st.sampled_from(["random", "loud", "hungry", "quiet"]),
                          min_size=1, max_size=6))
    return desk_scenario(n_act=n_act, p_ris_w=p_ris_w), draw(st.integers(0, 2**32 - 1)), kinds


class TestRepairDecoding:
    """GA and PSO keep only their repaired decision vectors and decode the
    winner once, so a repaired vector must decode to exactly the (r, c, v)
    that repair scored."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(problem=repair_populations())
    def test_decoded_repair_is_what_repair_returned(self, problem, active_fit, passive_fit):
        sc, seed, kinds = problem
        rng = np.random.default_rng(seed)
        mask = np.zeros(sc.n, dtype=bool)
        mask[rng.permutation(sc.n)[: sc.n_act]] = True
        fits = ElementFits.from_classes(active_fit, passive_fit, mask)
        space = _CircuitSearchSpace(sc, sample_channels(sc, rng), fits)
        span = space.upper - space.lower
        x = rng.uniform(space.lower - 0.2 * span, space.upper + 0.2 * span,
                        size=(len(kinds), space.dim))
        band_lo, band_hi = circuit.diode_band(sc.circuit)
        v_part = slice(space.n_act + space.n, None)
        for row, kind in enumerate(kinds):
            if kind == "loud":
                x[row, v_part] *= 3.0
            elif kind in ("hungry", "quiet"):
                x[row, : space.n_act] = band_lo if kind == "hungry" else band_hi
            if kind == "quiet":
                x[row, v_part] *= 0.5 * np.sqrt(sc.p_t_w) / np.linalg.norm(x[row, v_part])
        repaired, r, c, v, _ = space.repair(x)
        # the returned precoders are the repaired stack's own genes
        assert np.shares_memory(v, repaired)
        dr, dc, dv = space.decode(repaired)
        assert dr.tobytes() == r.tobytes()
        assert dc.tobytes() == c.tobytes()
        assert dv.tobytes() == v.tobytes()
        tx = np.linalg.norm(v, axis=(1, 2)) ** 2
        hungry = space.n_act * circuit.power_consumption(band_lo, sc.circuit) > sc.p_ris_w
        for row, kind in enumerate(kinds):
            if kind == "loud":
                assert tx[row] == pytest.approx(sc.p_t_w, rel=1e-12)
            elif kind == "quiet":
                assert np.array_equal(repaired[row], np.clip(x[row], space.lower, space.upper))
            elif kind == "hungry":
                assert np.any(r[row, space.active] != band_lo) == hungry


class TestDeliveredDesign:
    """GA, PSO and the random AO start build their designs from circuits:
    each records the reflection its cells deliver, that reflection's phases
    and their normalized controls (reflection.delivered_design)."""

    @pytest.mark.parametrize("p_ris_w", [0.375, 0.2])
    @pytest.mark.parametrize("scheme", ["GA", "PSO", "AO-random-init"])
    def test_records_the_reflection_its_cells_deliver(self, active_fit, passive_fit,
                                                      scheme, p_ris_w):
        sc = desk_scenario(n_act=11, p_ris_w=p_ris_w)
        ch, mask = trial_channels(sc, 5, 0, 0)
        fits = ElementFits.from_classes(active_fit, passive_fit, mask)
        rng = np.random.default_rng(5)
        if scheme == "AO-random-init":
            _, design = random_init(sc, fits, rng)
        else:
            runner = run_ga if scheme == "GA" else run_pso
            design = runner(sc, ch, fits, budget_from_ao(sc, j_alt=4, j_p=1), rng).design
        gamma = circuit.reflection(sc.circuit, design.r, design.c)
        phi = np.angle(gamma) % TWO_PI
        assert design.gamma.tobytes() == gamma.tobytes()
        assert design.phi.tobytes() == phi.tobytes()
        assert design.alpha_bar.tobytes() == normalized_amplitude(fits, phi, np.abs(gamma)).tobytes()
        assert design.ris_power_w == float(circuit.power_consumption(design.r[mask],
                                                                     sc.circuit).sum())
        assert np.array_equal(design.active_mask, mask) and design.active_mask is not mask
