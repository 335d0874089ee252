import ctypes
import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from actris import circuit, reflection
from actris.channel import ScenarioConfig, dbm_to_watt, rate_lmmse
from actris.constraints import validate_design
from actris.errors import ConfigError
from actris.harness import (
    CSV_HEADER,
    SCHEME_NAMES,
    ExperimentSpec,
    ResultRow,
    SchemeVariant,
    export_csv,
    fig_presets,
    load_config,
    load_design,
    n_full_power,
    run_experiment,
    run_scheme,
    save_design,
    spec_from_dict,
    summarize,
    trial_channels,
    _CONFIG_TABLE,
    _openblas_threads_fn,
    _scenario_for,
    _worker_pool,
)
from conftest import desk_scenario


def read_rows(path):
    """ResultRows read back from an exported CSV; a failure tag follows '!'
    in the scheme cell."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.readline() == CSV_HEADER + "\n"
        for line in fh:
            trial, cell, sweep, rate, ris, tx, iters, wall, seed = line.rstrip("\n").split(",")
            scheme, _, error = cell.partition("!")
            rows.append(ResultRow(int(trial), scheme, float(sweep), float(rate), float(ris),
                                  float(tx), int(iters), float(wall), int(seed), error))
    return rows


def _blas_threads():
    get = _openblas_threads_fn("get")
    get.restype = ctypes.c_int
    return get()


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def small_spec(**overrides):
    base = dict(
        scenario=ScenarioConfig(m_t=2, m_r=2, d=2, n=8, n_act=8, p_ris_w=0.19).with_rho_db(-30.0),
        sweep_kind="rho_db",
        sweep_values=(-30.0, -20.0),
        variants=(SchemeVariant("DO", "DO"), SchemeVariant("PAIDO", "PAIDO")),
        trials=3,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestConfig:
    def test_empty_file_yields_reference_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        spec = load_config(path)
        ref = ScenarioConfig()
        assert spec.scenario.m_t == ref.m_t == 8
        assert spec.scenario.n == ref.n == 64
        assert spec.scenario.p_t_w == pytest.approx(dbm_to_watt(-12.75))
        assert spec.scenario.p_ris_w == 1.5
        assert spec.scenario.f_r == pytest.approx(10.0 ** 0.7)
        assert spec.scenario.d_ris_tx_m == 40.0
        assert spec.scenario.rho_db == pytest.approx(-30.0, abs=0.1)

    def test_rho_sweep_backsolves_transmit_power(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "sweep": {"kind": "rho_db", "values": [-40, -20]},
            "schemes": ["DO"],
        }))
        spec = load_config(path)
        for value in spec.sweep_values:
            scenario, _ = _scenario_for(spec, spec.variants[0], value)
            assert scenario.rho_db == pytest.approx(value, abs=1e-9)

    def test_stream_count_validation(self):
        with pytest.raises(ConfigError):
            spec_from_dict({"m_t": 4, "m_r": 4, "d": 5})

    @pytest.mark.parametrize("raw", [
        {"m_t": 0}, {"m_r": 0}, {"d": 0}, {"n_elements": 0},
        {"sweep": {"kind": "n_elements", "values": [16, 0]}},
    ])
    def test_zero_dimension_rejected(self, raw):
        with pytest.raises(ConfigError, match="at least 1"):
            spec_from_dict(raw)

    @pytest.mark.parametrize("raw", [
        {"threads": 0}, {"threads": -4}, {"j_alt": 0, "schemes": ["GA"]}, {"j_alt": -2},
        {"sweep": {"kind": "j_alt", "values": [4, 0]}, "schemes": ["AO", "PSO"]},
    ])
    def test_count_below_one_rejected(self, raw):
        # j_alt 0 divided by zero in the GA/PSO budget, j_alt -2 ran AO for
        # no iteration and threads below 1 ran on one worker
        with pytest.raises(ConfigError, match="at least 1"):
            spec_from_dict(raw)

    def test_variant_j_alt_below_one_rejected(self):
        with pytest.raises(ConfigError, match="j_alt must be at least 1"):
            small_spec(variants=(SchemeVariant("AO", "AO", j_alt=0),))
        assert small_spec(variants=(SchemeVariant("AO", "AO", j_alt=1),)).variants[0].j_alt == 1

    def test_no_active_cells_allowed(self):
        assert spec_from_dict({"n_elements": 4, "n_act": 0}).scenario.n_act == 0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_dict({"p_t": -12.75})

    def test_unknown_circuit_key_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_dict({"circuit": {"l1": 4.5}})

    def test_duplicate_unit_forms_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_dict({"p_t_dbm": -12.75, "p_t_w": 1e-4})

    def test_unit_suffixed_circuit_keys(self):
        spec = spec_from_dict({"circuit": {"l1_nh": 4.5, "c_lo_pf": 0.1, "c_hi_pf": 100.0}})
        assert spec.scenario.circuit.l1 == pytest.approx(4.5e-9)
        assert spec.scenario.circuit.c_range == (0.1e-12, 100e-12)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_dict({"schemes": ["AO", "SA"]})

    @pytest.mark.parametrize("kind", ["n_elements", "j_alt"])
    def test_fractional_sweep_value_rejected(self, kind):
        # 16.5 elements or 2.7 iterations would run as 16 and 2 under a CSV
        # that records 16.5 and 2.7
        with pytest.raises(ConfigError, match="whole number"):
            spec_from_dict({"sweep": {"kind": kind, "values": [16, 16.5]}})
        with pytest.raises(ConfigError, match="whole number"):
            small_spec(sweep_kind=kind, sweep_values=(2.7,))
        assert small_spec(sweep_kind=kind, sweep_values=(16.0,)).sweep_values == (16.0,)

    def test_readme_names_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
        example = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])
        named = set(re.findall(r"`(\w+)`", section)) | set(example) | set(example["circuit"])
        assert {key for _, key, _, _ in _CONFIG_TABLE} <= named
        spec = spec_from_dict(example)
        assert spec.scenario.m_r == 8 and spec.scenario.n == 64


class TestDeterminism:
    def test_identical_runs_identical_csv(self, tmp_path):
        spec = small_spec()
        rows_a = run_experiment(spec)
        rows_b = run_experiment(spec)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(rows_a, pa)
        export_csv(rows_b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        spec1 = small_spec(threads=1)
        spec4 = small_spec(threads=4)
        pa, pb = tmp_path / "t1.csv", tmp_path / "t4.csv"
        export_csv(run_experiment(spec1), pa)
        export_csv(run_experiment(spec4), pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_two_workers_give_the_bytes_of_one(self, tmp_path):
        variants = tuple(SchemeVariant(s, s) for s in ("AO", "AO-random-init", "DO", "PAIDO"))
        paths = []
        for threads in (1, 2):
            spec = small_spec(variants=variants, trials=1, threads=threads)
            paths.append(tmp_path / f"w{threads}.csv")
            export_csv(run_experiment(spec), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_pool_workers_inherit_the_class_fits(self, monkeypatch):
        parent, fit = os.getpid(), reflection.fit_amplitude_model

        def parent_only_fit(*args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("a pool worker fitted an element class")
            return fit(*args, **kwargs)

        reflection.class_fits.cache_clear()
        monkeypatch.setattr(reflection, "fit_amplitude_model", parent_only_fit)
        pooled = run_experiment(small_spec(trials=2, threads=2))
        assert pooled == run_experiment(small_spec(trials=2, threads=1))

    @pytest.mark.skipif(_openblas_threads_fn("get") is None,
                        reason="numpy's OpenBLAS exports no thread control")
    def test_pool_workers_run_blas_on_one_thread(self):
        with _worker_pool(2) as pool:
            counts = {pool.submit(_blas_threads).result() for _ in range(4)}
        assert counts == {1}

    def test_channels_shared_across_schemes(self):
        spec = small_spec()
        sc, _ = _scenario_for(spec, spec.variants[0], -30.0)
        ch1, mask1 = trial_channels(sc, sc.seed, 0, 1)
        ch2, mask2 = trial_channels(sc, sc.seed, 0, 1)
        assert np.array_equal(ch1.h_1, ch2.h_1)
        assert np.array_equal(ch1.h_2, ch2.h_2)
        assert np.array_equal(mask1, mask2)
        ch3, _ = trial_channels(sc, sc.seed, 0, 2)
        assert not np.array_equal(ch1.h_1, ch3.h_1)

    def test_every_task_emits_each_scheme_once(self):
        spec = small_spec()
        rows = run_experiment(spec)
        seen = {}
        for r in rows:
            key = (r.sweep_value, r.trial, r.scheme)
            seen[key] = seen.get(key, 0) + 1
        assert all(v == 1 for v in seen.values())
        assert len(seen) == len(spec.sweep_values) * spec.trials * len(spec.variants)


class TestScoring:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_rate_is_the_lmmse_rate_at_the_delivered_reflection(self, scheme):
        # one ruler for every scheme: the circuits' reflection, not the
        # cosine model the design was made on
        sc = desk_scenario()
        ch, mask = trial_channels(sc, 0, 0, 0)
        fits = reflection.ElementFits(*reflection.class_fits(sc.circuit), mask)
        rate, v, design, _ = run_scheme(scheme, sc, ch, fits, np.random.default_rng(3))
        gamma = circuit.reflection(sc.circuit, design.r, design.c)
        assert type(rate) is float
        assert rate == rate_lmmse(ch, v, gamma, sc)


class TestCsv:
    def test_header_is_pinned(self):
        assert CSV_HEADER == (
            "trial,scheme,sweep_value,rate_bps_hz,ris_power_w,tx_power_w,"
            "iterations_used,wall_ms,seed"
        )

    def test_roundtrip(self, tmp_path):
        spec = small_spec(trials=2)
        rows = run_experiment(spec)
        path = tmp_path / "rows.csv"
        export_csv(rows, path)
        back = read_rows(path)
        assert back == rows

    def test_wall_ms_zero_without_timing_flag(self):
        rows = run_experiment(small_spec(trials=1))
        assert all(r.wall_ms == 0.0 for r in rows)

    def test_summary_hand_check(self):
        rows = [
            ResultRow(0, "DO", -30.0, 10.0, 0.1, 1e-4, 1, 0.0, 0),
            ResultRow(1, "DO", -30.0, 14.0, 0.1, 1e-4, 1, 0.0, 0),
            ResultRow(2, "DO", -30.0, 12.0, 0.1, 1e-4, 1, 0.0, 0),
        ]
        (entry,) = summarize(rows)
        assert entry["mean_rate_bps_hz"] == pytest.approx(12.0)
        assert entry["stderr_rate_bps_hz"] == pytest.approx(2.0 / np.sqrt(3.0))

    def test_summary_counts_failed_rows(self):
        rows = [
            ResultRow(0, "DO", -30.0, 10.0, 0.1, 1e-4, 1, 0.0, 0),
            ResultRow(1, "DO", -30.0, 0.0, 0.0, 0.0, 0, 0.0, 0, error="ConvergenceError"),
            ResultRow(2, "DO", -30.0, 14.0, 0.1, 1e-4, 1, 0.0, 0),
            ResultRow(0, "PAIDO", -30.0, 0.0, 0.0, 0.0, 0, 0.0, 0, error="ValueError"),
            ResultRow(1, "PAIDO", -30.0, 0.0, 0.0, 0.0, 0, 0.0, 0, error="ValueError"),
        ]
        do, paido = summarize(rows)
        # the failed row neither enters the mean nor the standard error
        assert (do["scheme"], do["trials"], do["failed"]) == ("DO", 2, 1)
        assert do["mean_rate_bps_hz"] == 12.0
        assert do["stderr_rate_bps_hz"] == pytest.approx(2.0)  # sqrt(8) / sqrt(2)
        assert (paido["scheme"], paido["trials"], paido["failed"]) == ("PAIDO", 0, 2)
        assert np.isnan(paido["mean_rate_bps_hz"])

    def test_cli_table_shows_failed_counts(self, tmp_path, capsys, monkeypatch):
        from actris import cli
        rows = [
            ResultRow(0, "DO", -30.0, 10.0, 0.1, 1e-4, 1, 0.0, 0),
            ResultRow(1, "DO", -30.0, 0.0, 0.0, 0.0, 0, 0.0, 0, error="ValueError"),
        ]
        monkeypatch.setattr(cli, "run_experiment", lambda spec: rows)
        assert cli._execute(small_spec(trials=2), None) == 3
        assert "mean=10.0000 bps/Hz failed=1/2 (+/- 0.0000, n=1)" in capsys.readouterr().out

    def test_summary_of_constant_column(self):
        rows = [ResultRow(i, "DO", -30.0, 5.0, 0.1, 1e-4, 1, 0.0, 0) for i in range(4)]
        (entry,) = summarize(rows)
        assert entry["stderr_rate_bps_hz"] == 0.0


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            fig_presets("fig9")

    def test_full_power_element_count(self):
        from actris.circuit import CircuitParams

        assert n_full_power(0.9, CircuitParams()) in (33, 34, 35)

    def test_fig7_activity_rules(self):
        spec = fig_presets("fig7", scale="desk")
        assert spec.sweep_kind == "n_elements"
        labels = [v.label for v in spec.variants]
        assert len(labels) == 3
        sc_all, _ = _scenario_for(spec, spec.variants[0], 144.0)
        sc_12, _ = _scenario_for(spec, spec.variants[1], 144.0)
        sc_14, _ = _scenario_for(spec, spec.variants[2], 144.0)
        nfp = n_full_power(0.9, spec.scenario.circuit)
        assert sc_12.n_act == int(1.2 * nfp)
        assert sc_14.n_act == int(1.4 * nfp)
        # all-active caps at the number the budget can hold at minimum power
        assert sc_all.n_act < 144
        from actris.circuit import CircuitParams, power_consumption, stable_resistance

        p_min = power_consumption(stable_resistance(3.0, spec.scenario.circuit), spec.scenario.circuit)
        assert sc_all.n_act == int(0.9 // p_min)
        # below the threshold every element stays active
        sc_small, _ = _scenario_for(spec, spec.variants[1], 16.0)
        assert sc_small.n_act == 16

    def test_fig6_fraction_variants(self):
        spec = fig_presets("fig6", scale="desk")
        assert spec.sweep_kind == "p_ris_w"
        fractions = [v.n_act_fraction for v in spec.variants]
        assert fractions == [0.7, 0.8, 0.9, 1.0]
        sc, _ = _scenario_for(spec, spec.variants[0], spec.sweep_values[0])
        assert sc.n_act == int(0.7 * sc.n)

    def test_fig3_two_initializations(self):
        spec = fig_presets("fig3", scale="desk")
        assert spec.sweep_kind == "j_alt"
        assert {v.scheme for v in spec.variants} == {"AO", "AO-random-init"}
        _, j_alt = _scenario_for(spec, spec.variants[0], 4.0)
        assert j_alt == 4

    def test_paper_scale_dimensions(self):
        spec = fig_presets("fig4", scale="paper")
        assert spec.scenario.m_t == 8
        assert spec.scenario.n == 64
        assert spec.trials == 200

    @pytest.mark.parametrize("name", ["fig3", "fig5", "fig6", "fig7"])
    def test_presets_run_clean(self, name):
        spec = fig_presets(name, scale="desk", seed=3)
        spec = dataclasses.replace(spec, trials=1, threads=1,
                                   sweep_values=spec.sweep_values[:1])
        rows = run_experiment(spec)
        assert rows
        assert all(not r.error for r in rows)

    def test_search_schemes_run_without_active_cells(self):
        # no active cell: the circuit search scores surfaces that draw no power
        spec = small_spec(
            scenario=desk_scenario(n_act=0),
            sweep_values=(-30.0,),
            variants=tuple(SchemeVariant(s, s) for s in ("DO", "GA", "PSO")),
            trials=1,
        )
        rows = run_experiment(spec)
        assert [r.scheme for r in rows] == ["DO", "GA", "PSO"]
        assert all(not r.error for r in rows)
        assert all(r.ris_power_w == 0.0 and r.rate_bps_hz > 0.0 for r in rows)


class TestDesignPersistence:
    def test_save_load_validate_roundtrip(self, tmp_path, fits_all_active, scenario_desk):
        from actris.do import run_do

        rng = np.random.default_rng(3)
        from actris.channel import sample_channels

        ch = sample_channels(scenario_desk, rng)
        res = run_do(scenario_desk, ch, fits_all_active, rng)
        path = tmp_path / "design.json"
        save_design(path, res.design, res.v)
        design, v = load_design(path)
        assert np.allclose(design.gamma, res.design.gamma)
        assert np.allclose(v, res.v)
        assert design.ris_power_w == pytest.approx(res.design.ris_power_w)

    def test_budget_is_checked_on_the_drawn_power(self, params_va, fits_all_active, scenario_desk):
        phi = np.full(16, 5.9)
        _, upper = fits_all_active.bounds(phi)
        design = reflection.realize_design(params_va, fits_all_active, phi, upper)
        v = np.zeros((scenario_desk.m_t, 1))
        over = design.ris_power_w - scenario_desk.p_ris_w
        assert over > 0.0
        problems = validate_design(scenario_desk, fits_all_active, v, design)
        assert any("exceeds budget" in p for p in problems)
        design.ris_power_w -= over   # a recorded power inside the budget
        problems = validate_design(scenario_desk, fits_all_active, v, design)
        assert any("exceeds budget" in p for p in problems)
        assert any("differs from" in p for p in problems)


class TestCli:
    def test_fit_model_emits_coefficient_keys(self, tmp_path, capsys):
        from actris.cli import main

        out = tmp_path / "fits.yaml"
        assert main(["fit-model", "--out", str(out)]) == 0
        data = yaml.safe_load(out.read_text())
        assert set(data) == {"active", "passive"}
        assert set(data["active"]) == {
            "delta_min", "delta_max", "beta_min", "beta_max", "theta_rad"
        }
        assert data["active"] == reflection.fit_amplitude_model(
            circuit.CircuitParams(), "active").to_dict()

    def test_fit_model_grid_below_the_floor_is_a_configuration_error(self, capsys):
        from actris.cli import main

        assert main(["fit-model", "--grid", "100"]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")

    def test_run_and_exit_codes(self, tmp_path, capsys):
        from actris.cli import main

        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "m_t": 2, "m_r": 2, "d": 2, "n_elements": 8, "p_ris_w": 0.19,
            "rho_db": -30.0, "trials": 2, "schemes": ["DO"],
        }))
        out = tmp_path / "rows.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().startswith(CSV_HEADER)

        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"nonsense_key": 1}))
        assert main(["run", "--config", str(bad)]) == 2
        for key in ("d", "n_elements"):
            empty = tmp_path / f"zero_{key}.yaml"
            empty.write_text(yaml.safe_dump({key: 0, "schemes": ["DO"], "trials": 1}))
            assert main(["run", "--config", str(empty)]) == 2
        assert main(["run", "--config", str(tmp_path / "missing.yaml")]) == 2
        for threads in ("0", "-1"):
            assert main(["run", "--config", str(cfg), "--threads", threads]) == 2

    def test_unmatchable_search_budget_is_a_configuration_error(self, tmp_path, capsys,
                                                                monkeypatch):
        # at N = 2 one population of two already overshoots the AO budget by
        # 27 percent; every GA row of every trial used to fail on it
        from actris import harness
        from actris.cli import main

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran on an unmatchable budget")

        monkeypatch.setattr(harness, "run_scheme", no_trial)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "m_t": 4, "m_r": 4, "d": 4, "n_elements": 2, "p_ris_w": 0.375,
            "trials": 2, "schemes": ["GA", "DO"],
        }))
        out = tmp_path / "rows.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: GA at rho_db")
        for part in ("complexity budget", "N = 2", "j_alt = 20", "target 452.548", "is 576"):
            assert part in err
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("run", "trials: abc\n"),
        ("run", "m_t: [1, 2]\n"),
        ("run", "schemes:\n"),
        ("run", "sweep: {kind: rho_db, values: 5}\n"),
        ("run", "trials: 2: 3\n"),
        ("validate", '{"phi": [0.0], "active_mask": [1]}'),
        ("validate", "phi: [0.0]\n"),
        ("run", "trials: 2.5\n"),
        ("run", "n_elements: true\n"),
        ("run", "record_timing: \"no\"\n"),
        ("run", "record_timing: 1\n"),
        ("run", "p_ris_w: .nan\n"),
        ("run", "rho_db: .nan\n"),
        ("run", "eps: .nan\n"),
        ("run", "eps: -1.0e-3\n"),
        ("run", "p_t_w: .inf\n"),
        ("run", "circuit: {r0_ohm: .nan}\n"),
        ("run", "circuit: {c_hi_pf: .inf}\n"),
        ("run", "sweep: {kind: d_rx_ris_m, values: [4.0, .nan]}\n"),
        ("run", "sweep: {kind: n_elements, values: [16.5]}\n"),
        ("run", "freq_ghz: 0\n"),
        ("run", "p_t_dbm: 1.0e+308\n"),
        ("run", "rho_db: 1.0e+308\n"),
        ("run", "sweep: {kind: rho_db, values: [1.0e+308]}\n"),
        ("run", "j_alt: 0\nschemes: [GA]\n"),
        ("run", "threads: -4\n"),
        ("run", "sweep: {kind: j_alt, values: [0]}\n"),
    ], ids=["text-count", "list-count", "null-schemes", "scalar-sweep", "yaml-syntax",
            "design-without-alpha-bar", "design-not-json", "fractional-count",
            "boolean-count", "text-flag", "number-flag", "nan-budget", "nan-snr",
            "nan-eps", "negative-eps", "infinite-power", "nan-circuit", "infinite-capacitance",
            "nan-sweep", "fractional-sweep", "zero-frequency", "overflowing-power",
            "overflowing-snr", "overflowing-sweep", "zero-iterations", "negative-workers", "zero-iteration-sweep"])
    def test_malformed_input_is_a_configuration_error(self, tmp_path, capsys, command, text):
        from actris.cli import main

        path = tmp_path / "input"
        path.write_text(text)
        flag = "--config" if command == "run" else "--design"
        assert main([command, flag, str(path)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")

    @pytest.mark.parametrize("command", ["run", "fit-model"])
    def test_empty_diode_band_is_a_configuration_error(self, tmp_path, capsys, command):
        # at r0 = 10 ohm the most negative resistance the phase admits,
        # -F(phi), lies above the band's upper end at 23 % of the phases
        from actris.cli import main

        path = tmp_path / "cfg.yaml"
        path.write_text("circuit: {r0_ohm: 10.0}\nschemes: [DO]\ntrials: 1\n")
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "band" in err and "empty" in err

    def test_validate_subcommand(self, tmp_path, capsys, fits_all_active, scenario_desk):
        from actris.channel import sample_channels
        from actris.cli import main
        from actris.do import run_do

        rng = np.random.default_rng(5)
        ch = sample_channels(scenario_desk, rng)
        res = run_do(scenario_desk, ch, fits_all_active, rng)
        path = tmp_path / "design.json"
        save_design(path, res.design, res.v)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "m_t": 4, "m_r": 4, "d": 4, "n_elements": 16, "p_ris_w": 0.375,
            "rho_db": -30.0,
        }))
        assert main(["validate", "--design", str(path), "--config", str(cfg)]) == 0

        # corrupt the design so the surface power budget is violated
        payload = json.loads(path.read_text())
        payload["ris_power_w"] = 99.0
        path.write_text(json.dumps(payload))
        assert main(["validate", "--design", str(path), "--config", str(cfg)]) == 3

    def test_validate_reads_the_cells(self, tmp_path, capsys, params_va, fits_all_active):
        # 16 active cells at phase 5.9 and mid amplitude draw about 0.4 W
        from actris.cli import main

        phi = np.full(16, 5.9)
        lower, upper = fits_all_active.bounds(phi)
        design = reflection.realize_design(params_va, fits_all_active, phi, 0.5 * (lower + upper))
        assert design.ris_power_w == pytest.approx(0.398, abs=1e-3)
        path = tmp_path / "design.json"
        save_design(path, design, np.zeros((8, 1)))
        payload = json.loads(path.read_text())

        def validate(**changes):
            path.write_text(json.dumps({**payload, **changes}))
            code = main(["validate", "--design", str(path)])
            return code, capsys.readouterr().err

        assert validate() == (0, "")
        # a low recorded power and 3 of the 16 cells
        code, err = validate(ris_power_w=0.01, cells_r=payload["cells_r"][:3],
                             cells_c=payload["cells_c"][:3])
        assert code == 3 and "3 resistances and 3 capacitances for 16 cells" in err
        code, err = validate(ris_power_w=0.01)
        assert code == 3 and "differs from the 0.397797 W" in err
        # per-cell arrays shorter than the cells, or cells fewer than the arrays
        code, err = validate(phi=payload["phi"][:3])
        assert code == 3 and "VIOLATION: 3 phases for 16 cells" in err
        code, err = validate(active_mask=payload["active_mask"][:3])
        assert code == 3 and ("16 phases, 16 normalized amplitudes, 16 reflection targets, "
                              "16 resistances and 16 capacitances for 3 cells") in err
        band_lo = circuit.diode_band(params_va)[0]
        code, err = validate(cells_r=[2.0 * band_lo] + payload["cells_r"][1:])
        assert code == 3 and "below the diode band edge" in err

    def test_preset_fig2_writes_curves(self, tmp_path, capsys):
        from actris.cli import main

        out = tmp_path / "curves.csv"
        assert main(["preset", "--name", "fig2", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "phi_rad,exact_lower,exact_upper,approx_lower,approx_upper"
        # the soft-diode parameter set of the amplitude-bound study
        params = circuit.fig2_params()
        assert params.r0 == 0.5
        phis, lower, upper = reflection.exact_bound_curves(params, "active", 3600)
        written = np.loadtxt(out, delimiter=",", skiprows=1)
        assert _same_bits(written[:, :3], np.column_stack([phis, lower, upper]))
        with pytest.raises(ConfigError):
            fig_presets("fig2")

    @pytest.mark.parametrize("given", [["--scale", "desk"], ["--seed", "0"], ["--trials", "3"],
                                       ["--threads", "2"], ["--timing"]])
    def test_preset_fig2_rejects_run_options(self, given, tmp_path, capsys):
        from actris.cli import main

        out = tmp_path / "curves.csv"
        assert main(["preset", "--name", "fig2", "--out", str(out), *given]) == 2
        assert f"takes no {given[0]}" in capsys.readouterr().err
        assert not out.exists()
