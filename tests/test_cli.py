import argparse
import json
from pathlib import Path

import numpy as np
import pytest

import qdarwin as q
from qdarwin import cli, experiments, information
from qdarwin.cli import CSV_HEADER, main, render_heatmap_svg, write_csv


def write_model_config(tmp_path, kind, n_env=4):
    path = tmp_path / f"{kind.lower()}.json"
    path.write_text(q.build_model(kind, n_env).to_json())
    return str(path)


def write_sweep_config(tmp_path, **kwargs):
    defaults = dict(
        model="CPDI",
        n_env=3,
        time_grid=[0.0, 1.0, 2.0],
        fragment_sizes=[0, 1, 2, 3],
        realizations=2,
        master_seed=1,
    )
    defaults.update(kwargs)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(defaults))
    return str(path)


def command_options():
    """Each subcommand's option actions by flag, all from one parser."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {flag: action for action in sub._actions for flag in action.option_strings}
        for name, sub in commands.choices.items()
    }


class TestClassifyCommand:
    def test_cpdi_output_line(self, tmp_path, capsys):
        config = write_model_config(tmp_path, "CPDI")
        assert main(["classify", "--config", config]) == 0
        out = capsys.readouterr().out.strip()
        assert out == (
            '{"pointer_basis":true,"continuous_support":true,'
            '"no_scrambling":true,"darwinism_supported":true}'
        )

    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("DPDI", (True, False, True, False)),
            ("CODI", (False, True, True, False)),
            ("CPDI_S", (True, True, False, False)),
        ],
    )
    def test_other_kinds(self, tmp_path, capsys, kind, expected):
        config = write_model_config(tmp_path, kind)
        assert main(["classify", "--config", config, "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (
            doc["pointer_basis"],
            doc["continuous_support"],
            doc["no_scrambling"],
            doc["darwinism_supported"],
        ) == expected

    @pytest.mark.parametrize(
        "sys_env,expected",
        [
            # rank 1 along x, parallel to the system field
            ([("xz", 1, 0.7), ("xy", 2, 1.2)], [True, True, True, True]),
            # rank 2: xz and yy
            ([("xz", 1, 0.7), ("yy", 2, 1.2)], [False, True, True, False]),
        ],
        ids=["rank-1-x", "rank-2"],
    )
    def test_flags_are_json_booleans(self, tmp_path, capsys, sys_env, expected):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "n_env": 2,
            "b0": [0.5, 0.0, 0.0],
            "sys_env": [{"axes": axes, "site": site, "source": {"type": "uniform", "a": a}}
                        for axes, site, a in sys_env],
        }))
        assert main(["classify", "--config", str(config)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc.values()) == expected
        assert all(type(value) is bool for value in doc.values())

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d.pop("n_env"), "missing key 'n_env' in model spec"),
            (lambda d: d["sys_env"][0].pop("source"), "missing key 'source' in sys_env entry"),
            (lambda d: d["intra_env"].append({"axes": "zz", "source": {"type": "uniform", "a": 1}}),
             "missing key 'sites' in intra_env entry"),
            (lambda d: d["sys_env"][0]["source"].pop("a"), "missing key 'a' in uniform source"),
        ],
        ids=["spec", "entry-source", "entry-field", "source"],
    )
    def test_missing_key_is_named_with_its_document(self, tmp_path, capsys, edit, message):
        doc = q.build_model("CPDI", 2).to_json_dict()
        edit(doc)
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(doc))
        assert main(["classify", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_negative_seed_names_its_key(self, tmp_path, capsys):
        config = write_model_config(tmp_path, "CPDI")
        assert main(["classify", "--config", config, "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed")

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["classify", "--config", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

        # a misspelled key must not silently drop the scrambling couplings
        typo = tmp_path / "typo.json"
        scramble = {"type": "uniform", "a": 0.03}
        typo.write_text(json.dumps({
            "label": "CPDI_S",
            "n_env": 2,
            "sys_env": [{"axes": "zz", "site": 1, "source": {"type": "uniform", "a": 1.0}}],
            "intra_envs": [{"axes": "zz", "sites": [1, 2], "source": scramble}],
        }))
        assert main(["classify", "--config", str(typo)]) == 2
        assert "intra_envs" in capsys.readouterr().err

        # a non-integral number must not be truncated to a valid one
        spec = q.build_model("CPDI", 2).to_json_dict()
        for key, edit in (
            ("n_env", lambda d: d.update(n_env=2.5)),
            ("site", lambda d: d["sys_env"][0].update(site=1.9)),
            ("site", lambda d: d["sys_env"][0].update(site=True)),
            ("sites", lambda d: d["intra_env"].append(
                {"axes": "zz", "sites": [1, 2.5], "source": {"type": "const", "value": 1.0}}
            )),
            # axes are one two-letter string, never cut short or truncated
            ("axes", lambda d: d["sys_env"][0].update(axes="z")),
            ("axes", lambda d: d["sys_env"][0].update(axes="zzz")),
            ("axes", lambda d: d["sys_env"][0].update(axes=["z"])),
            ("axes", lambda d: d["sys_env"][0].update(axes=["z", "z"])),
            # a string, a bool or NaN is not a real number
            ("half_width", lambda d: d["sys_env"][0].update(source={"type": "uniform", "a": "1"})),
            ("half_width", lambda d: d["sys_env"][0].update(
                source={"type": "uniform", "a": float("nan")}
            )),
            ("value", lambda d: d["sys_env"][0].update(source={"type": "const", "value": True})),
            ("support", lambda d: d["sys_env"][0].update(
                source={"type": "discrete", "support": "15"}
            )),
            ("b0", lambda d: d.update(b0=["0", 0.0, 0.0])),
            ("b0", lambda d: d.update(b0=[0.0, float("nan"), 0.0])),
            # a repeated entry must not replace the first; site 1.0 is site 1
            ("sys_env", lambda d: d["sys_env"].append(
                {"axes": "zz", "site": 1.0, "source": {"type": "const", "value": 5.0}}
            )),
            ("label", lambda d: d.update(label={"type": 1})),
        ):
            doc = json.loads(json.dumps(spec))
            edit(doc)
            bad.write_text(json.dumps(doc))
            assert main(["classify", "--config", str(bad)]) == 2
            assert key in capsys.readouterr().err

        # a relative tolerance must be a finite positive number
        good = write_model_config(tmp_path, "CPDI")
        for tol in ("nan", "inf"):
            assert main(["classify", "--config", good, "--tol", tol]) == 2
            assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("sys_env", lambda d: d.update(sys_env=5)),
            ("sys_env", lambda d: d.update(sys_env=None)),
            ("intra_env", lambda d: d.update(intra_env={"axes": "zz"})),
            ("b0", lambda d: d.update(b0=5)),
            ("support", lambda d: d["sys_env"][0].update(
                source={"type": "discrete", "support": 5})),
            ("site", lambda d: d["sys_env"][0].update(site={"type": 1})),
            ("sites", lambda d: d["intra_env"].append(
                {"axes": "zz", "sites": [[1], 2], "source": {"type": "const", "value": 1.0}})),
            ("source", lambda d: d["sys_env"][0].update(
                source={"type": {"type": "uniform", "a": 1.0}})),
        ],
        ids=["sys_env-number", "sys_env-null", "intra_env-object", "b0-number",
             "support-number", "site-object", "sites-list-entry", "source-object-type"],
    )
    def test_non_list_and_non_scalar_values_name_their_key(self, tmp_path, capsys, key, edit):
        doc = q.build_model("CPDI", 2).to_json_dict()
        edit(doc)
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(doc))
        assert main(["classify", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}")
        assert "iterable" not in err and "unhashable" not in err


class TestFig2Command:
    def test_csv_contents(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,I_inf,chi_inf"
        assert len(lines) == 52  # header + 51 rows
        row = lines[26].split(",")
        assert int(row[0]) == 25
        assert float(row[1]) == pytest.approx(1.0, abs=1e-6)

    def test_a_negative_n_env_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--n-env", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: n_env")
        assert not out.exists()


class TestGammaCommand:
    def test_single_point_at_t0(self, capsys):
        code = main(["gamma", "--dist", "uniform:1", "--alpha2", "0.5", "--tmax", "0", "--steps", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "time,avg_gamma_sq"
        assert lines[1] == "0,1"

    def test_curve_to_file(self, tmp_path):
        out = tmp_path / "gamma.csv"
        code = main(
            ["gamma", "--dist", "discrete:-1,-0.5,0.5,1", "--alpha2", "0.5",
             "--tmax", "3.2", "--steps", "5", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6
        times = [float(l.split(",")[0]) for l in lines[1:]]
        np.testing.assert_allclose(times, [0.0, 0.8, 1.6, 2.4, 3.2])

    @pytest.mark.parametrize("steps", [1, 2, 7, 40])
    def test_rows_are_the_grid_and_its_average(self, capsys, steps):
        argv = ["gamma", "--dist", "discrete:-1,-0.5,0.5,1", "--alpha2", "0.3",
                "--tmax", "4.5", "--steps", str(steps)]
        assert main(argv) == 0
        times = np.linspace(0.0, 4.5, steps)
        values = q.averaged_gamma_squared(q.DiscreteUniform((-1.0, -0.5, 0.5, 1.0)), 0.3, times)
        rows = [f"{cli._fmt(t)},{cli._fmt(v)}" for t, v in zip(times, values)]
        assert capsys.readouterr().out.splitlines() == ["time,avg_gamma_sq"] + rows

    def test_const_dist(self, capsys):
        code = main(["gamma", "--dist", "const:0.5", "--alpha2", "0.3", "--tmax", "0", "--steps", "1"])
        assert code == 0

    def test_bad_dist_is_usage_error(self, capsys):
        assert main(["gamma", "--dist", "gauss:1", "--alpha2", "0.5", "--tmax", "1", "--steps", "2"]) == 2
        assert main(["gamma", "--dist", "uniform", "--alpha2", "0.5", "--tmax", "1", "--steps", "2"]) == 2
        # NaN fails every range check
        for dist, alpha2, tmax, key in (
            ("uniform:nan", "0.5", "1", "half_width"), ("discrete:1,nan", "0.5", "1", "support"),
            ("uniform:1", "nan", "1", "alpha_sq"), ("uniform:1", "0.5", "nan", "tmax"),
            ("uniform:1", "0.5", "inf", "tmax"),
        ):
            argv = ["gamma", "--dist", dist, "--alpha2", alpha2, "--tmax", tmax, "--steps", "2"]
            assert main(argv) == 2
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("dist,key", [
        ("uniform:abc", "a"), ("const:", "value"), ("uniform:1,2", "a"), ("const:0.5,1", "value"),
    ])
    def test_a_bad_law_parameter_names_its_key(self, capsys, dist, key):
        argv = ["gamma", "--dist", dist, "--alpha2", "0.5", "--tmax", "1", "--steps", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: expected")

    def test_steps_below_one_is_usage_error(self, capsys):
        argv = ["gamma", "--dist", "uniform:1", "--alpha2", "0.5", "--tmax", "1", "--steps", "0"]
        assert main(argv) == 2
        assert "steps must be >= 1, got 0" in capsys.readouterr().err


class TestSweepCommand:
    def test_end_to_end(self, tmp_path):
        config = write_sweep_config(tmp_path)
        out = tmp_path / "out.csv"
        svg = tmp_path / "out.svg"
        code = main(["sweep", "--config", config, "--out", str(out), "--svg", str(svg)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 4

        # rows ordered by (time, fragment_size)
        keys = [(float(l.split(",")[2]), int(l.split(",")[3])) for l in lines[1:]]
        assert keys == sorted(keys)

        # 12-significant-digit round trip is idempotent
        for line in lines[1:]:
            for cell in line.split(",")[4:]:
                if cell:
                    assert format(float(cell), ".12g") == cell

        sidecar = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert sidecar["config"]["model"] == "CPDI"
        assert sidecar["master_seed"] == 1
        assert sidecar["version"] == q.__version__

        svg_text = svg.read_text()
        assert svg_text.startswith("<svg")
        assert "fragment size" in svg_text

    @pytest.mark.parametrize(
        "model, engine", [("CPDI", "branching"), ("CODI", "dense"), ("CPDI_S", "diagonal")]
    )
    def test_sidecar_records_engine_that_ran(self, tmp_path, model, engine):
        config = write_sweep_config(tmp_path, model=model, n_env=2, fragment_sizes=[0, 1, 2])
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert sidecar["engine"] == engine
        assert "engine" not in sidecar["config"] and "normalize" not in sidecar["config"]
        with open(config) as fh:
            given = q.ExperimentConfig.from_json_dict(json.load(fh))
        assert q.ExperimentConfig.from_json_dict(sidecar["config"]) == given

    def test_seed_override(self, tmp_path):
        config = write_sweep_config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--config", config, "--out", str(out_a), "--seed", "99"]) == 0
        assert main(["sweep", "--config", config, "--out", str(out_b)]) == 0
        assert out_a.read_text() != out_b.read_text()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["master_seed"] == 99

    def test_dpdi_recurrence_row(self, tmp_path):
        config = write_sweep_config(
            tmp_path, model="DPDI", time_grid=[float(np.pi)], fragment_sizes=[0, 1, 2, 3]
        )
        out = tmp_path / "dpdi.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            assert abs(float(line.split(",")[4])) <= 1e-9

    def test_codi_empty_holevo_cells(self, tmp_path):
        config = write_sweep_config(tmp_path, model="CODI", n_env=2, fragment_sizes=[0, 1, 2])
        out = tmp_path / "codi.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            cells = line.split(",")
            assert cells[6] == "" and cells[7] == "" and cells[8] == ""
            assert cells[4] != ""

    def test_chi_heatmap_refused_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        outs = ["--out", str(tmp_path / "x.csv"), "--svg", str(tmp_path / "x.svg"),
                "--svg-quantity", "chi"]
        # CPDI-S without intra-environment couplings is in branching form
        plain = write_sweep_config(tmp_path, model="CPDI_S", n_env=2, fragment_sizes=[0, 1, 2],
                                   overrides={"scramble_half_width": 0.0})
        assert main(["sweep", "--config", plain, *outs]) == 0
        for path in tmp_path.glob("x*"):
            path.unlink()

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        monkeypatch.setattr(cli, "reproduce_fig3", no_sweep)
        for argv in (
            ["fig3", "--model", "CODI", "--n-env", "2", *outs],
            ["fig3", "--model", "CPDI-S", "--n-env", "2", *outs],
            ["sweep", "--config", write_sweep_config(tmp_path, model="CPDI_S", n_env=2,
                                                     fragment_sizes=[0, 1, 2]), *outs],
        ):
            assert main(argv) == 2
            assert "--svg-quantity chi" in capsys.readouterr().err
            assert list(tmp_path.glob("x*")) == []

    def test_unwritable_path_is_runtime_error(self, tmp_path, capsys):
        config = write_sweep_config(tmp_path)
        code = main(["sweep", "--config", config, "--out", "/nonexistent/dir/x.csv"])
        assert code == 1

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        config = write_sweep_config(tmp_path, time_grid=[])
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
        # a misspelled key must not silently run with the default master seed
        config = write_sweep_config(tmp_path, master_sed=5)
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
        assert "master_sed" in capsys.readouterr().err
        # the engine and the normalization follow from the model: no such keys
        for key, value in (("engine", "auto"), ("normalize", "smax")):
            config = write_sweep_config(tmp_path, **{key: value})
            assert main(["sweep", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
            assert key in capsys.readouterr().err
        # a non-integral number must not be truncated to a valid one
        for key, value in (
            ("realizations", 2.7), ("n_env", True), ("master_seed", 1.5),
            ("subsets_per_realization", "2"), ("fragment_sizes", [0, 1.5]),
            # a string, a bool or NaN is not a real number
            ("time_grid", "0123"), ("time_grid", [False, True, 2]),
            ("time_grid", [0.0, float("nan")]), ("time_grid", [0, 10**400]),
        ):
            config = write_sweep_config(tmp_path, **{key: value})
            assert main(["sweep", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
            assert key in capsys.readouterr().err
        # each override goes to a model that reads it, so its value check refuses it
        for model, key, value in (
            ("DPDI", "support", "15"), ("CPDI", "half_width", True),
            ("CPDI_S", "scramble_half_width", float("nan")),
        ):
            config = write_sweep_config(tmp_path, model=model, overrides={key: value})
            assert main(["sweep", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
            err = capsys.readouterr().err
            assert key in err and "unknown key" not in err
        out = str(tmp_path / "x.csv")
        for flag, key in (("--scramble", "scramble_half_width"), ("--half-width", "half_width")):
            assert main(["fig3", "--model", "CPDI-S", flag, "nan", "--out", out]) == 2
            assert key in capsys.readouterr().err
        # an integral float is an integer
        config = write_sweep_config(tmp_path, realizations=2.0, fragment_sizes=[0.0, 3.0])
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "x.csv")]) == 0


    @pytest.mark.parametrize(
        "key, edit",
        [
            ("time_grid", {"time_grid": 5}),
            ("time_grid", {"time_grid": None}),
            ("time_grid", {"time_grid": {"0": 1}}),
            ("fragment_sizes", {"fragment_sizes": 3}),
            ("support", {"model": "DPDI", "overrides": {"support": 5}}),
            ("fragment_sizes", {"fragment_sizes": [1, 0]}),
        ],
        ids=["time_grid-number", "time_grid-null", "time_grid-object", "fragment_sizes-number",
             "support-number", "fragment_sizes-unordered"],
    )
    def test_non_list_values_name_their_key(self, tmp_path, capsys, key, edit):
        config = write_sweep_config(tmp_path, **edit)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}")
        assert "iterable" not in err and "unhashable" not in err
        assert not out.exists()

    def test_the_model_is_built_once(self, tmp_path, monkeypatch):
        # the config's override check builds the spec, and the sweep reuses it
        builds = []

        def counted_build(*args, **kwargs):
            builds.append(args)
            return q.build_model(*args, **kwargs)

        for module in (experiments, cli):
            monkeypatch.setattr(module, "build_model", counted_build)
        config = write_sweep_config(tmp_path, model="CPDI_S", n_env=2, fragment_sizes=[0, 1, 2])
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "x.csv")]) == 0
        assert builds == [("CPDI_S", 2)]

    def test_seed_override_builds_the_model_once(self, tmp_path, monkeypatch):
        builds = []

        def counted_build(*args, **kwargs):
            builds.append(args)
            return q.build_model(*args, **kwargs)

        monkeypatch.setattr(experiments, "build_model", counted_build)
        config = write_sweep_config(tmp_path)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", config, "--out", str(out), "--seed", "3"]) == 0
        assert builds == [("CPDI", 3)]
        sidecar = json.loads((tmp_path / "x.csv.meta.json").read_text())
        assert sidecar["master_seed"] == 3 and sidecar["config"]["master_seed"] == 3

    def test_seed_override_keeps_the_object_check(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"model": "CPDI"}]))
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--seed", "3"]) == 2
        assert "error: experiment config must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_a_document_that_is_not_json_names_its_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"model": "CPDI",')
        out = tmp_path / "x.csv"
        for argv in (["sweep", "--config", str(path), "--out", str(out)],
                     ["classify", "--config", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: --config {path}: not valid JSON: Expecting property")
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [[["half_width", 2]], None, "half_width"])
    def test_overrides_must_be_an_object(self, tmp_path, capsys, overrides):
        config = write_sweep_config(tmp_path, overrides=overrides)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert "error: overrides: expected a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key", ["model", "n_env", "time_grid", "fragment_sizes", "realizations"]
    )
    def test_missing_key_is_named_with_its_config(self, tmp_path, capsys, key):
        path = tmp_path / "sweep.json"
        config = json.loads(Path(write_sweep_config(tmp_path)).read_text())
        del config[key]
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: missing key {key!r} in experiment config\n"

    def test_override_the_model_does_not_read_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        for model, flag, value, key in (
            ("CPDI", "--support", "1,2", "support"), ("DPDI", "--half-width", "5", "half_width"),
            ("CODI", "--scramble", "0.5", "scramble_half_width"),
        ):
            assert main(["fig3", "--model", model, "--n-env", "2", flag, value,
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert model in err and key in err
            config = write_sweep_config(tmp_path, model=model, overrides={key: float(value[0])})
            assert main(["sweep", "--config", config, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert model in err and key in err
        assert not out.exists()
        # the parameters a model does read still run
        assert main(["fig3", "--model", "DPDI", "--n-env", "2", "--realizations", "2",
                     "--support", "1,2", "--out", str(out)]) == 0


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["explode"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["classify"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("command", ["fig3", "sweep"])
    def test_a_register_past_the_engine_cap_names_n_env(self, tmp_path, capsys, command):
        # CODI's blocks of H at N = 30 and CPDI-S's state at N = 40 pass the cap
        out = tmp_path / "out.csv"
        if command == "fig3":
            argv = ["fig3", "--model", "CODI", "--n-env", "30"]
        else:
            config = write_sweep_config(tmp_path, model="CPDI_S", n_env=40, realizations=1)
            argv = ["sweep", "--config", config]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_env: ") and "engine cap" in err
        assert not out.exists()


class TestSharedSurface:
    def test_fig3_and_sweep_share_their_output_flags(self):
        options = command_options()
        flags = ("--out", "--sidecar", "--svg", "--svg-quantity")
        for flag in flags:
            # declared once: both commands hold the same argparse action
            assert options["fig3"][flag] is options["sweep"][flag]
        out, sidecar, svg, quantity = (options["sweep"][flag] for flag in flags)
        assert out.required and not sidecar.required and not svg.required
        assert sidecar.default is None and svg.default is None
        assert quantity.default == "ratio" and tuple(quantity.choices) == ("ratio", "I", "chi")

    def test_support_and_discrete_dist_read_one_strict_list(self, tmp_path, capsys):
        out = tmp_path / "dpdi.csv"
        fig3 = ["fig3", "--model", "DPDI", "--n-env", "2", "--realizations", "2", "--out", str(out)]
        gamma = ["gamma", "--alpha2", "0.5", "--tmax", "1", "--steps", "2"]
        for entries in ("1,,2", "1,2,", ""):
            assert main([*fig3, "--support", entries]) == 2
            assert "support" in capsys.readouterr().err
            assert main([*gamma, "--dist", "discrete:" + entries]) == 2
            assert "support" in capsys.readouterr().err
        assert not out.exists()
        # blanks around an entry are allowed; the sidecar defaults to <out>.meta.json
        assert main([*fig3, "--support", " 0.5, 1"]) == 0
        sidecar = json.loads((tmp_path / "dpdi.csv.meta.json").read_text())
        assert sidecar["config"]["overrides"]["support"] == [0.5, 1.0]
        assert main([*gamma, "--dist", "discrete: 0.5, 1"]) == 0


class TestRuntimeErrors:
    @pytest.mark.parametrize("error", [TypeError, KeyError, AttributeError])
    def test_an_error_other_than_value_error_is_internal(self, tmp_path, capsys, monkeypatch,
                                                        error):
        # only a ValueError is a usage error: a bug is never reported as one
        def broken(*args, **kwargs):
            raise error("a bug")

        monkeypatch.setattr(cli, "classify", broken)
        assert main(["classify", "--config", write_model_config(tmp_path, "CPDI")]) == 1
        assert capsys.readouterr().err.startswith("internal error: ")

    def test_numerical_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # an unnormalized cut gives a reduced spectrum above 1: the range check fails
        gram = information._gram  # the Gram of amplitudes doubled
        monkeypatch.setattr(information, "_gram", lambda psi, plan: 4.0 * gram(psi, plan))
        out = str(tmp_path / "codi.csv")
        code = main(["fig3", "--model", "CODI", "--realizations", "1", "--n-env", "3", "--out", out])
        assert code == 1
        assert "error: numerical failure: eigenvalues out of [0, 1]" in capsys.readouterr().err
        # an unknown config key is still a usage error
        config = write_sweep_config(tmp_path, model="CODI", master_sed=5)
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2


class TestHeatmap:
    def run_small_sweep(self, **kwargs):
        defaults = dict(
            model="CPDI",
            n_env=1,
            time_grid=(1.0,),
            fragment_sizes=(1,),
            realizations=1,
            master_seed=0,
        )
        defaults.update(kwargs)
        return q.run_sweep(q.ExperimentConfig(**defaults))

    def test_single_cell_grid(self, tmp_path):
        res = self.run_small_sweep()
        path = tmp_path / "one.svg"
        render_heatmap_svg(res, "ratio", path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<rect") >= 2  # background + one cell
        assert "min=" in text and "max=" in text

    def test_deterministic_bytes(self, tmp_path):
        res = q.run_sweep(
            q.ExperimentConfig(
                model="CPDI",
                n_env=3,
                time_grid=(0.0, 0.5, 1.0, 2.0),
                fragment_sizes=(0, 1, 2, 3),
                realizations=2,
                master_seed=5,
            )
        )
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        render_heatmap_svg(res, "ratio", a)
        render_heatmap_svg(res, "ratio", b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_all_nan_quantity(self, tmp_path):
        res = self.run_small_sweep(model="CODI")
        with pytest.raises(ValueError):
            render_heatmap_svg(res, "chi", tmp_path / "x.svg")

    def test_write_csv_never_header_only(self, tmp_path):
        res = self.run_small_sweep()
        path = tmp_path / "r.csv"
        write_csv(res, path)
        assert len(path.read_text().strip().splitlines()) >= 2
