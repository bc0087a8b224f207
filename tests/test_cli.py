import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from dstlab import cli
from dstlab.cli import main
from dstlab.correlation import (
    correlation_chain_roots,
    planar_square_family,
    tetrahedron_family,
)
from dstlab.lattice import LatticeGeometry, OccupiedState, landscape_scan_2d, weight_arrays

SRC = str(Path(cli.__file__).resolve().parents[1])


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def load(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# validation behavior

def test_malformed_config_exits_2_without_outputs(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "minimize", "params": {"n": "one", "f": 2, "m": 4}},
    )
    out = tmp_path / "out"
    rc = main(["minimize", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_unknown_param_key_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "minimize", "params": {"n": 1, "f": 2, "m": 4, "zap": 1}},
    )
    rc = main(["minimize", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "zap" in capsys.readouterr().err


def test_unknown_toplevel_key_rejected(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "lightcone-check",
            "params": {"values": {}},
            "banana": True,
        },
    )
    assert main(["lightcone-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_subcommand_mismatch_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "lattice",
            "params": {},
        },
    )
    rc = main(["minimize", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "invoked as" in capsys.readouterr().err


def test_missing_or_unparsable_config(tmp_path):
    assert main(["minimize", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["minimize", "--config", str(bad)]) == 2


_MINIMIZE = {"subcommand": "minimize", "params": {"n": 1, "f": 2, "m": 3, "max_iter": 5},
             "seeds": [0]}


@pytest.mark.parametrize("config, token", [
    ({**_MINIMIZE, "params": {"n": 1, "f": 2, "m": 3, "mu": math.nan}}, "NaN"),
    ({**_MINIMIZE, "params": {"n": 1, "f": 2, "m": 3, "mode": "constrained",
                              "kappa": math.nan}}, "NaN"),
    ({**_MINIMIZE, "tolerances": {"gram": math.nan}}, "NaN"),
    ({"subcommand": "state-stability",
      "params": {"table": "table.csv", "masses": [math.nan]}}, "NaN"),
    ({"subcommand": "lattice",
      "params": {"n_t": 4, "n_r": 3, "states": [{"omega": 0, "k": 1}, {"omega": -1, "k": 2}],
                 "weights": {"rho_t": [1.0, 2.0, 2.0, math.nan], "rho_r": [1.0, 1.0, 1.0]},
                 "scan": {"start": -1.0, "stop": 1.0, "num": 5}}}, "NaN"),
    ({"subcommand": "landscape",
      "params": {"family": "triangle", "start": math.nan, "stop": 1.0, "num": 3}}, "NaN"),
    ({"subcommand": "landscape",
      "params": {"family": "triangle", "start": 0.7, "stop": -math.inf, "num": 3}},
     "-Infinity"),
    ({"subcommand": "classify-causal", "params": {"roots": [[[math.nan, 0.0]]]}}, "NaN"),
], ids=["mu", "kappa", "gram", "masses", "lattice_weight",
        "landscape_start", "landscape_stop", "roots"])
def test_nan_and_infinity_are_validation_errors(tmp_path, capsys, config, token):
    # json reads these non-JSON tokens as floats, which every "number" schema admits
    _stability_table(tmp_path, [(0.5, 0.0, 1.0), (1.0, 0.0, 0.5)])
    out = tmp_path / "o"
    argv = [config["subcommand"], "--config", write_config(tmp_path / "c.json", config),
            "--out", str(out)]
    assert main(argv) == 2
    assert f"{token} is not a JSON number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {**_MINIMIZE, "tolerances": {"gram": "BIG"}},
    {"subcommand": "landscape",
     "params": {"family": "triangle", "start": 0.7, "stop": "BIG", "num": 3}},
], ids=["gram", "landscape_stop"])
def test_an_overflowing_number_is_a_validation_error(tmp_path, capsys, config):
    # json reads 1e400 as inf, which every "number" schema admits: the Gram
    # check would never fire, and the landscape grid would fail as a
    # numerical error
    out = tmp_path / "o"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config).replace('"BIG"', "1e400"))
    assert main([config["subcommand"], "--config", str(path), "--out", str(out)]) == 2
    assert "1e400 overflows a float" in capsys.readouterr().err
    assert not out.exists()


def test_too_deeply_nested_config_is_validation_error(tmp_path, capsys):
    # json raises RecursionError, not a ValueError, on nesting this deep
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100_000)
    out = tmp_path / "o"
    assert main(["minimize", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    built, build = [], cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["reproduce", "--figure", "fig9", "--out", str(tmp_path / "o")]) == 2
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_unknown_figure_rejected(tmp_path, capsys):
    rc = main(["reproduce", "--figure", "fig9", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "fig9" in capsys.readouterr().err


def test_empty_seed_list_for_solver_rejected(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "minimize", "params": {"n": 1, "f": 2, "m": 4}},
    )
    assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_bad_tolerance_override_rejected(tmp_path, capsys):
    # the config's tolerances block overrides the defaults, one known knob at a time
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "classify-causal",
            "params": {"roots": [[[1.0, 0.0]]]},
            "tolerances": {"not_a_knob": 1e-9},
        },
    )
    out = tmp_path / "o"
    assert main(["classify-causal", "--config", cfg, "--out", str(out)]) == 2
    assert "config invalid at tolerances" in capsys.readouterr().err
    assert not out.exists()


def test_seeds_tolerances_and_output_have_one_source_each(tmp_path, monkeypatch, capsys):
    # seeds and tolerances come from the config only, the output directory
    # from --out or $DSTLAB_OUT only
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DSTLAB_OUT", raising=False)
    cfg = write_config(tmp_path / "c.json", _MINIMIZE)
    for flag in (["--seed-list", "0"], ["--tolerances", cfg]):
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--config", cfg, "--out", str(tmp_path / "o"), *flag])
        assert exc.value.code == 2
    cfg = write_config(tmp_path / "c.json", {**_MINIMIZE, "out": str(tmp_path / "o")})
    assert main(["minimize", "--config", cfg]) == 2
    assert "'out' was unexpected" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_non_object_config_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", [1, 2])
    out = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 2
    assert "config invalid at <root>" in capsys.readouterr().err
    assert not out.exists()


def test_removed_tolerance_knob_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "classify-causal",
            "params": {"roots": [[[1.0, 0.0]]]},
            "tolerances": {"lightcone_zero": 1e-9},
        },
    )
    out = tmp_path / "o"
    assert main(["classify-causal", "--config", cfg, "--out", str(out)]) == 2
    assert "lightcone_zero" in capsys.readouterr().err
    assert not out.exists()


def test_removed_projector_tolerance_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "classify-causal",
            "params": {"roots": [[[1.0, 0.0]]]},
            "tolerances": {"projector": 1e-3},
        },
    )
    out = tmp_path / "o"
    assert main(["classify-causal", "--config", cfg, "--out", str(out)]) == 2
    assert "projector" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("module", ["sympy", "scipy.optimize", "scipy.integrate",
                                    "scipy.linalg", "dstlab.continuum.minkowski",
                                    "dstlab.continuum.momentum", "jsonschema"])
def test_importing_the_cli_does_not_load(module):
    # each is imported by its users when they run: sympy by lightcone-check,
    # scipy.optimize by multiset_distance when the multisets differ,
    # scipy.integrate by regularized_action,
    # scipy.linalg by the random start, the orthonormalization and the gauge blocks,
    # jsonschema by the first config validation;
    # no subcommand uses the vector-scalar kernels or the mass cone
    code = f"import sys, dstlab.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["dstlab.causal", "dstlab.continuum.seas"])
def test_importing_the_lattice_does_not_load(module):
    # the lattice model uses the gamma matrices and the critical Lagrangian only
    code = f"import sys, dstlab.lattice; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["reproduce", "lattice"])
def test_the_lattice_landscape_loads_no_scipy_module(tmp_path, command):
    # the lattice landscape is numpy arithmetic only
    out = str(tmp_path / "out")
    argv = (["reproduce", "--figure", "fig5", "--out", out] if command == "reproduce" else
            ["lattice", "--config", _lattice_config(tmp_path, {"start": -1.0, "stop": 1.0,
                                                               "num": 5}), "--out", out])
    code = ("import sys; from dstlab.cli import main; "
            f"code = main({argv!r}); "
            "print(code, any(m.startswith('scipy') for m in sys.modules))")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert out.stdout.strip().splitlines()[-1] == "0 False"


def test_spacelike_n1_classification_loads_no_scipy_optimize(tmp_path):
    # n = 1 roots are exact conjugate pairs, which multiset_distance matches
    # without an assignment: neither the fig3 landscape nor the causal graph
    # of a spacelike triangle loads scipy.optimize
    code = ("import sys; from dstlab.cli import main; "
            f"print(main(['reproduce', '--figure', 'fig3', '--out', {str(tmp_path / 'out')!r}]), "
            "'scipy.optimize' in sys.modules); "
            "from dstlab.causal import CausalClass, causal_graph; "
            "from dstlab.correlation import triangle_projector; "
            "off = causal_graph(triangle_projector(0.95)).off_diagonal_class(); "
            "print(off is CausalClass.SPACELIKE, 'scipy.optimize' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert out.stdout.strip().splitlines()[-2:] == ["0 False", "True False"]


def test_reproduce_loads_no_jsonschema(tmp_path):
    # the canned configs are constants, validated by
    # test_every_reproduce_plan_validates; a config run in the same process
    # validates, and so loads jsonschema
    bad = _lattice_config(tmp_path, {"start": -1.0, "stop": 1.0, "num": 5}, bogus=1)
    code = ("import sys; from dstlab.cli import main; "
            f"print(main(['reproduce', '--figure', 'fig5', '--out', {str(tmp_path / 'out')!r}]), "
            "'jsonschema' in sys.modules); "
            f"print(main(['lattice', '--config', {bad!r}, '--out', {str(tmp_path / 'bad')!r}]), "
            "'jsonschema' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert out.stdout.strip().splitlines() == ["0 False", "2 True"]
    assert "bogus" in out.stderr
    assert (tmp_path / "out" / "fig5_surface.csv").is_file()
    assert not (tmp_path / "bad").exists()


def test_schemas_are_valid_draft_2020_12():
    validators, _ = cli._validators()
    for key in cli.PARAM_SCHEMAS:
        jsonschema.Draft202012Validator.check_schema(validators[key].schema)


def test_runs_make_no_metaschema_check(tmp_path, monkeypatch):
    def refuse(cls, schema, *args, **kwargs):
        raise AssertionError("metaschema check at run time")

    monkeypatch.setattr(
        jsonschema.Draft202012Validator, "check_schema", classmethod(refuse)
    )
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "classify-causal",
            "params": {"roots": [[[1.0, 0.0], [2.0, 0.0]]]},
            "tolerances": {"causal": 1e-9},
        },
    )
    out = tmp_path / "out"
    assert main(["classify-causal", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "classifications.json").is_file()


def test_every_reproduce_plan_validates():
    assert cli.FIGURES == ("fig1-2", "fig3", "fig5")
    for figure in cli.FIGURES:
        for _, config in cli.PLANS[figure]:
            cli._validate(config, config["subcommand"])


# ---------------------------------------------------------------------------
# classify-causal

def test_classify_roots_frozen_classes(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "classify-causal",
            "params": {
                "roots": [
                    [[1.0, 0.0], [2.0, 0.0]],
                    [[1.0, 1.0], [1.0, -1.0]],
                    [[1.0, 1.0], [2.0, 0.0]],
                ]
            },
        },
    )
    out = tmp_path / "out"
    assert main(["classify-causal", "--config", cfg, "--out", str(out)]) == 0
    report = load(out / "classifications.json")
    classes = [rec["class"] for rec in report["multisets"]]
    assert classes == ["timelike", "spacelike", "undetermined"]
    assert report["counts"] == {"timelike": 1, "spacelike": 1, "undetermined": 1}


def test_classify_sample_without_seeds_is_validation_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "classify-causal", "params": {"sample": {"n": 1, "m": 3, "f": 2}}},
    )
    out = tmp_path / "out"
    assert main(["classify-causal", "--config", cfg, "--out", str(out)]) == 2
    assert "needs seeds" in capsys.readouterr().err
    assert not out.exists()

def test_negative_seed_list_override_fails_validation(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "classify-causal",
            "params": {"sample": {"n": 1, "m": 4, "f": 2}},
            "seeds": [-1],
        },
    )
    out = tmp_path / "out"
    assert main(["classify-causal", "--config", cfg, "--out", str(out)]) == 2
    assert "config invalid at seeds/0" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_seed_list_override_fails_validation(tmp_path, capsys):
    # the solver keys each seed's traces by its seed, so a repeated seed is invalid
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "minimize", "params": {"n": 1, "f": 2, "m": 3}, "seeds": [0, 0]},
    )
    out = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 2
    assert "config invalid at seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, params, rank",
    [
        ("minimize", {"n": 1, "f": 5, "m": 2}, "f=5 outside 1..2"),
        ("classify-causal", {"sample": {"n": 1, "m": 2, "f": 5}}, "f=5 outside 1..2"),
        ("pauli-vectors", {"m": 1}, "f=2 outside 1..1"),
    ],
    ids=["minimize", "classify-causal", "pauli-vectors"],
)
def test_rank_above_n_times_m_fails_validation(tmp_path, capsys, subcommand, params,
                                               rank):
    cfg = write_config(
        tmp_path / "c.json", {"subcommand": subcommand, "params": params, "seeds": [0]}
    )
    out = tmp_path / "out"
    rc = main([subcommand, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert f"rank {rank}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# landscape + determinism + manifest contract

def _triangle_config(tmp_path, num=9):
    return write_config(
        tmp_path / "c.json",
        {
            "subcommand": "landscape",
            "params": {
                "family": "triangle",
                "start": 2.0 / 3.0,
                "stop": 0.85,
                "num": num,
            },
        },
    )


def test_landscape_csv_shape_and_endpoint(tmp_path):
    cfg = _triangle_config(tmp_path)
    out = tmp_path / "out"
    assert main(["landscape", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "landscape.csv").read_text().splitlines()
    assert lines[0] == "v,re_lam_plus,im_lam_plus,re_lam_minus,im_lam_minus"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert abs(float(first[0]) - 2.0 / 3.0) < 1e-15
    # the symmetric point carries the known closed-form root pair (1/9, 0)
    assert abs(float(first[1]) - 1.0 / 9.0) < 1e-12
    assert abs(float(first[3])) < 1e-12


def test_payloads_are_byte_identical_across_runs(tmp_path):
    cfg = _triangle_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["landscape", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["landscape", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("landscape.csv", "landscape.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    ma, mb = load(out_a / "manifest.json"), load(out_b / "manifest.json")
    ma.pop("created_utc"), mb.pop("created_utc")
    assert ma == mb



@pytest.mark.parametrize("name, family", [("tetrahedron", tetrahedron_family),
                                          ("planar-square", planar_square_family)])
def test_landscape_of_a_four_point_family(tmp_path, name, family):
    # four weights sum to 2, so rho = 1/2; v below rho is no correlation, and
    # the landscape records the error and leaves the point out of the CSV
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "landscape",
            "params": {"family": name, "start": 0.25, "stop": 1.0, "num": 4},
        },
    )
    out = tmp_path / "out"
    assert main(["landscape", "--config", cfg, "--out", str(out)]) == 0
    records = load(out / "landscape.json")["records"]
    assert "v >= |rho|" in records[0]["error"]
    rows = [list(map(float, line.split(",")))
            for line in (out / "landscape.csv").read_text().splitlines()[1:]]
    assert len(rows) == sum("error" not in r for r in records) >= 3
    for v, re_plus, im_plus, re_minus, im_minus in rows:
        corr = family(v)
        plus, minus = correlation_chain_roots(corr.rho[0], corr.vectors[0],
                                              corr.rho[1], corr.vectors[1])
        np.testing.assert_allclose([re_plus + 1j * im_plus, re_minus + 1j * im_minus],
                                   [plus, minus], rtol=0, atol=1e-12)


def test_landscape_rejects_rho(tmp_path, capsys):
    # rho = 1/2 is the only realizable weight of a four-point family, so the
    # landscape has no rho key: a config that sets one is a config mistake
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "landscape",
            "params": {"family": "tetrahedron", "start": 0.5, "stop": 1.0, "num": 3,
                       "rho": 0.4},
        },
    )
    out = tmp_path / "out"
    assert main(["landscape", "--config", cfg, "--out", str(out)]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]
    assert "rho" in capsys.readouterr().err


def test_manifest_indexes_every_output(tmp_path):
    cfg = _triangle_config(tmp_path)
    out = tmp_path / "out"
    assert main(["landscape", "--config", cfg, "--out", str(out)]) == 0
    manifest = load(out / "manifest.json")
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    listed = {entry["path"] for entry in manifest["outputs"]}
    assert listed == on_disk
    for entry in manifest["outputs"]:
        payload = (out / entry["path"]).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == entry["sha256"]
        assert len(payload) == entry["bytes"]
    assert manifest["rng"]["algorithm"] == "numpy Philox"
    assert len(manifest["config_sha256"]) == 64


# ---------------------------------------------------------------------------
# lattice

def test_lattice_scan_reports_origin_and_wells(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "lattice",
            "params": {
                "n_t": 8,
                "n_r": 6,
                "states": [{"omega": -1, "k": 1}, {"omega": -2, "k": 2}],
                "weights": "sphere",
                "scan": {"start": -2.4, "stop": 2.4, "num": 13},
            },
        },
    )
    out = tmp_path / "out"
    assert main(["lattice", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "surface.csv").read_text().splitlines()
    assert lines[0] == "tau1,tau2,S"
    assert len(lines) == 1 + 13 * 13
    minima = load(out / "minima.json")
    assert minima["origin"]["on_grid"] is True
    assert minima["origin"]["is_local_minimum"] is True
    assert minima["origin"]["is_global_minimum"] is False
    assert len(minima["global_minima"]) == 2


def test_lattice_surface_csv_matches_the_float_columns(tmp_path):
    scan = {"start": -2.1, "stop": 0.7, "num": 29}
    out = tmp_path / "out"
    assert main(["lattice", "--config", _lattice_config(tmp_path, scan),
                 "--out", str(out)]) == 0
    taus = np.linspace(scan["start"], scan["stop"], scan["num"])
    surface = landscape_scan_2d(
        LatticeGeometry(8, 6), OccupiedState(-1, 1), OccupiedState(-2, 2), taus
    ).surface
    expected = cli._csv_bytes(
        ("tau1", "tau2", "S"),
        (np.repeat(taus, taus.size), np.tile(taus, taus.size), surface.ravel()),
    )
    assert (out / "surface.csv").read_bytes() == expected


def test_csv_bytes_column_rule():
    # a list of str as it is; an ndarray or any other list through np.asarray,
    # floats with repr (a list of np.float64, as landscape.csv passes, too)
    columns = (
        ["-2.5", "x"],
        np.array([3, -40]),
        np.array([1.0 / 3.0, 1e-20]),
        [np.float64(0.1), 2.0],
    )
    assert cli._csv_bytes(("s", "i", "f", "g"), columns) == (
        b"s,i,f,g\n-2.5,3,0.3333333333333333,0.1\nx,-40,1e-20,2.0\n"
    )
    with pytest.raises(TypeError):
        cli._csv_bytes(("s",), (["a", 1.5],))


def _lattice_config(tmp_path, scan, **params):
    return write_config(
        tmp_path / "c.json",
        {
            "subcommand": "lattice",
            "params": {
                "n_t": 8,
                "n_r": 6,
                "states": [{"omega": -1, "k": 1}, {"omega": -2, "k": 2}],
                "scan": scan,
                **params,
            },
        },
    )


def test_lattice_origin_flags_when_the_grid_misses_zero_by_an_ulp(tmp_path):
    scan = {"start": -2.1, "stop": 0.7, "num": 29}
    taus = np.linspace(scan["start"], scan["stop"], scan["num"])
    i0 = int(np.argmin(np.abs(taus)))
    assert taus[i0] != 0.0 and abs(taus[i0]) < 1e-12
    out = tmp_path / "out"
    assert main(["lattice", "--config", _lattice_config(tmp_path, scan),
                 "--out", str(out)]) == 0
    minima = load(out / "minima.json")
    origin = minima["origin"]
    assert [taus[i0], taus[i0]] in [m[:2] for m in minima["local_minima"]]
    assert origin["on_grid"] is True
    assert origin["is_local_minimum"] is True
    assert origin["is_global_minimum"] is False
    np.testing.assert_allclose(origin["value"], 366.6250737475249, rtol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lattice_overflowing_scan_is_numerical_error(tmp_path, capsys):
    cfg = _lattice_config(tmp_path, {"start": -800.0, "stop": 800.0, "num": 5})
    out = tmp_path / "out"
    assert main(["lattice", "--config", cfg, "--out", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err
    assert not (out / "surface.csv").exists()


def test_lattice_bad_occupation_is_validation_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "lattice",
            "params": {
                "n_t": 8,
                "n_r": 6,
                "states": [{"omega": 1, "k": 1}, {"omega": -2, "k": 2}],
                "scan": {"start": -1.0, "stop": 1.0, "num": 5},
            },
        },
    )
    rc = main(["lattice", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "dual lattice" in capsys.readouterr().err


def test_lattice_unknown_weight_preset_is_validation_error(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "lattice",
            "params": {
                "n_t": 4,
                "n_r": 3,
                "states": [{"omega": 0, "k": 1}, {"omega": -1, "k": 2}],
                "weights": "cube",
                "scan": {"start": -1.0, "stop": 1.0, "num": 5},
            },
        },
    )
    assert main(["lattice", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_lattice_explicit_weights(tmp_path, capsys):
    scan = {"start": -1.0, "stop": 1.0, "num": 5}
    rho_t, rho_r = weight_arrays(LatticeGeometry(8, 6), "sphere")
    runs = {}
    for name, weights in [("preset", "sphere"),
                          ("explicit", {"rho_t": rho_t.tolist(), "rho_r": rho_r.tolist()}),
                          ("doubled", {"rho_t": (2 * rho_t).tolist(), "rho_r": rho_r.tolist()})]:
        out = tmp_path / name
        assert main(["lattice", "--config", _lattice_config(tmp_path, scan, weights=weights),
                     "--out", str(out)]) == 0
        runs[name] = out / "surface.csv"
    assert runs["explicit"].read_bytes() == runs["preset"].read_bytes()
    preset, doubled = (np.loadtxt(runs[k], delimiter=",", skiprows=1)
                       for k in ("preset", "doubled"))
    np.testing.assert_allclose(doubled[:, 2], 2 * preset[:, 2], rtol=1e-14)
    # a weight array of the wrong length is a config mistake
    cfg = _lattice_config(tmp_path, scan, weights={"rho_t": [1.0], "rho_r": rho_r.tolist()})
    out = tmp_path / "short"
    assert main(["lattice", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("dstlab: error:")
    assert not out.exists()


def test_lattice_weights_whose_products_overflow_are_validation_error(tmp_path, capsys):
    # each weight is finite, but rho_t[t] rho_r[r] is inf
    scan = {"start": -1.0, "stop": 1.0, "num": 5}
    weights = {"rho_t": [1e200] * 8, "rho_r": [1e200] * 6}
    out = tmp_path / "o"
    assert main(["lattice", "--config", _lattice_config(tmp_path, scan, weights=weights),
                 "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# lightcone-check

def test_lightcone_check_exact_rationals(tmp_path):
    values = {
        "C0": [1, 2],
        "C1": [1, 3],
        "C2": [2, 5],
        "C3": 0,
        "D0": 1,
        "D1": [0, 1],
        "D2": [3, 7],
        "D3": [1, 4],
    }
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "lightcone-check", "params": {"values": values}},
    )
    out = tmp_path / "out"
    assert main(["lightcone-check", "--config", cfg, "--out", str(out)]) == 0
    report = load(out / "expansion.json")

    def coeff(terms, **key):
        for t in terms:
            if all(t[k] == v for k, v in key.items()):
                return t
        raise AssertionError(f"no term with {key}")

    chain = report["closed_chain"]["terms"]
    # C0^2 / xi^6
    lead = coeff(chain, slash=0, pole=3, theta=0)
    assert lead["re"] == [1, 4] and lead["im"] == [0, 1]
    # C1^2 + 2 C0 C2 = 1/9 + 2/5 = 23/45
    sub = coeff(chain, slash=0, pole=2, theta=0)
    assert sub["re"] == [23, 45]
    # 2 C0 D3 theta term = 2*(1/2)*(1/4) = 1/4
    theta = coeff(chain, slash=1, pole=2, theta=1)
    assert theta["re"] == [1, 4]
    # gradient doubles the vector part: 4 C0 D3 = 1/2
    grad = report["gradient"]["terms"]
    gv = coeff(grad, slash=1, pole=2, theta=1)
    assert gv["re"] == [1, 2]


def test_lightcone_check_requires_all_coefficients(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "lightcone-check", "params": {"values": {"C0": [1, 2]}}},
    )
    assert main(["lightcone-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_lightcone_check_zero_denominator_is_validation_error(tmp_path, capsys):
    values = {name: 1 for name in ("C0", "C1", "C2", "C3", "D0", "D1", "D2", "D3")}
    values["D2"] = [3, 0]
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "lightcone-check", "params": {"values": values}},
    )
    out = tmp_path / "o"
    assert main(["lightcone-check", "--config", cfg, "--out", str(out)]) == 2
    assert "params/values/D2/1" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# state-stability

def _stability_table(tmp_path, rows):
    table = tmp_path / "table.csv"
    lines = ["qsq,a,b"] + [f"{q},{a},{b}" for q, a, b in rows]
    table.write_text("\n".join(lines) + "\n")
    return "table.csv"


def test_state_stability_stable_and_unstable(tmp_path):
    qsq = np.linspace(0.5, 5.0, 46)  # step 0.1, so q^2 = 1 and 4 are on-grid
    rows = [(q, 0.0, (q - 1.0) ** 2) for q in qsq]
    rel = _stability_table(tmp_path, rows)
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "state-stability",
            "params": {"table": rel, "masses": [1.0], "tol": 1e-6},
        },
    )
    out = tmp_path / "out"
    assert main(["state-stability", "--config", cfg, "--out", str(out)]) == 0
    report = load(out / "stability.json")
    assert report["stable"] is True

    cfg2 = write_config(
        tmp_path / "c2.json",
        {
            "subcommand": "state-stability",
            "params": {"table": rel, "masses": [1.0, 2.0], "tol": 1e-6},
        },
    )
    out2 = tmp_path / "out2"
    assert main(["state-stability", "--config", cfg2, "--out", str(out2)]) == 0
    report2 = load(out2 / "stability.json")
    assert report2["stable"] is False
    kinds = {v["kind"] for v in report2["violations"]}
    assert kinds == {"not_minimal"}


def test_state_stability_mass_outside_grid_is_validation_error(tmp_path, capsys):
    rel = _stability_table(tmp_path, [(0.5, 0.0, 1.0), (1.0, 0.0, 0.5)])
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "state-stability",
            "params": {"table": rel, "masses": [5.0]},
        },
    )
    rc = main(["state-stability", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "outside the sampled grid" in capsys.readouterr().err


def test_state_stability_one_row_table(tmp_path):
    # a one-row table parses to a 0-d record; its one sample is the shell
    rel = _stability_table(tmp_path, [(1.0, 0.0, 0.5)])
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "state-stability", "params": {"table": rel, "masses": [1.0]}},
    )
    out = tmp_path / "out"
    assert main(["state-stability", "--config", cfg, "--out", str(out)]) == 0
    report = load(out / "stability.json")
    assert report["stable"] is True
    assert report["shell_values"] == [{"mass": 1.0, "value": 0.5}]


@pytest.mark.filterwarnings("ignore:genfromtxt")  # numpy warns of the empty file
@pytest.mark.parametrize("text, message", [("qsq,a,b\n", "has a header but no rows"),
                                           ("", "cannot parse table")],
                         ids=["header_only", "empty_file"])
def test_state_stability_table_without_rows_is_validation_error(tmp_path, capsys, text,
                                                                message):
    (tmp_path / "table.csv").write_text(text)
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "state-stability", "params": {"table": "table.csv", "masses": [1.0]}},
    )
    out = tmp_path / "o"
    assert main(["state-stability", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "table.csv" in err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["", "nan"], ids=["blank", "nan"])
def test_state_stability_blank_or_nan_cell_is_validation_error(tmp_path, capsys, cell):
    # genfromtxt reads both as nan, which made the infimum nan and the verdict "stable"
    (tmp_path / "table.csv").write_text(f"qsq,a,b\n0.5,{cell},1.0\n1.0,0.0,0.5\n")
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "state-stability", "params": {"table": "table.csv", "masses": [1.0]}},
    )
    out = tmp_path / "o"
    assert main(["state-stability", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "blank or non-finite cell" in err and "table.csv" in err
    assert not out.exists()



def test_state_stability_table_without_its_columns_is_validation_error(tmp_path, capsys):
    (tmp_path / "table.csv").write_text("q,a,b\n0.5,0.0,1.0\n1.0,0.0,0.5\n")
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "state-stability", "params": {"table": "table.csv", "masses": [1.0]}},
    )
    out = tmp_path / "o"
    assert main(["state-stability", "--config", cfg, "--out", str(out)]) == 2
    assert "table needs columns qsq,a,b" in capsys.readouterr().err
    assert not out.exists()

@pytest.mark.parametrize("text, message",
                         [("qsq,a,b\n2,0,1\n1,0,1\n", "q^2 grid must be strictly increasing"),
                          ("qsq,a,b\n0,0,1\n1,0,1\n", "the grid parametrizes q^2 > 0")],
                         ids=["decreasing", "nonpositive"])
def test_state_stability_bad_qsq_grid_is_validation_error(tmp_path, capsys, text, message):
    # state_stability_check refuses the grid with InvalidInput, as the table checks do
    (tmp_path / "table.csv").write_text(text)
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "state-stability", "params": {"table": "table.csv", "masses": [1.0]}},
    )
    out = tmp_path / "o"
    assert main(["state-stability", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_state_stability_missing_table(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "state-stability",
            "params": {"table": "ghost.csv", "masses": [1.0]},
        },
    )
    assert main(["state-stability", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# solver-backed subcommands

def test_minimize_writes_result_and_pauli_csv(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "minimize",
            "params": {"n": 1, "f": 2, "m": 3, "mu": 0.5, "max_iter": 400},
            "seeds": [0, 1],
        },
    )
    out = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
    result = load(out / "result.json")
    assert result["status"] in ("converged", "max_iterations")
    assert len(result["per_seed"]) == 2
    lines = (out / "pauli_vectors.csv").read_text().splitlines()
    assert lines[0] == "x,rho,v1,v2,v3"
    assert len(lines) == 4
    assert (out / "geometry.json").is_file()


def test_minimize_divergence_exit_code(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "minimize",
            "params": {"n": 1, "f": 2, "m": 3, "mu": 0.7, "max_iter": 5000},
            "seeds": [0],
        },
    )
    out = tmp_path / "out"
    rc = main(["minimize", "--config", cfg, "--out", str(out)])
    assert rc == 4
    result = load(out / "result.json")
    assert result["status"] == "divergence"
    assert load(out / "manifest.json")["status"] == "divergence"

    # this projector diverges to weights near 1e6, whose sums cancel only to
    # rounding relative to them; the run still writes its Pauli vectors
    cfg = write_config(
        tmp_path / "pv.json",
        {"subcommand": "pauli-vectors", "params": {"m": 4, "mu": 1.0}, "seeds": [0]},
    )
    out = tmp_path / "pv"
    assert main(["pauli-vectors", "--config", cfg, "--out", str(out)]) == 4
    assert load(out / "result.json")["status"] == "divergence"
    assert load(out / "manifest.json")["status"] == "divergence"
    assert (out / "pauli_vectors.csv").is_file()


def test_result_records_each_seeds_exit_reason(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "minimize",
            "params": {"n": 1, "f": 2, "m": 3, "mu": 0.5, "max_iter": 3},
            "seeds": [0, 1],
        },
    )
    out = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
    for rec in load(out / "result.json")["per_seed"]:
        assert rec["status"] == "max_iterations"
        assert rec["exit_reason"] == "max_iterations"
        assert rec["iterations"] == 3


def test_tetra_seeds_all_report_converged_within_an_iteration_budget(tmp_path):
    # every seed of the gate's m = 4 run reaches the tetrahedron; a seed that
    # flattened out is reported "stalled", not "converged"
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "pauli-vectors", "params": {"m": 4}, "seeds": list(range(8))},
    )
    out = tmp_path / "out"
    assert main(["pauli-vectors", "--config", cfg, "--out", str(out)]) == 0
    result = load(out / "result.json")
    assert result["status"] == "converged"
    for rec in result["per_seed"]:
        assert (rec["seed"], rec["status"], rec["exit_reason"]) == (
            rec["seed"], "converged", "converged"
        )
        assert rec["gradient_norm"] <= 1e-8
    assert sum(rec["iterations"] for rec in result["per_seed"]) <= 800


def test_constrained_mode_requires_kappa(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "minimize",
            "params": {"n": 1, "f": 2, "m": 3, "mode": "constrained"},
            "seeds": [0],
        },
    )
    assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("subcommand, params, message", [
    ("minimize", {"n": 1, "f": 2, "m": 3, "mode": "constrained", "kappa": 0.85, "mu": 0.5},
     "mu is unused in constrained mode"),
    ("pauli-vectors", {"m": 3, "kappa": 0.85}, "kappa is unused in auxiliary mode"),
], ids=["mu_in_constrained", "kappa_in_auxiliary"])
def test_a_param_the_mode_ignores_is_validation_error(tmp_path, capsys, subcommand, params,
                                                      message):
    # a constrained solve reads no mu and an auxiliary one no kappa
    cfg = write_config(tmp_path / "c.json",
                       {"subcommand": subcommand, "params": params, "seeds": [0]})
    out = tmp_path / "o"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# reproduce + output-root resolution

def test_infeasible_kappa_is_numerical_error(tmp_path, capsys):
    # InfeasibleKappa is a ValueError but no InvalidInput: the level is out
    # of reach of every start, which only the solve can tell
    cfg = write_config(
        tmp_path / "c.json",
        {"subcommand": "minimize",
         "params": {"n": 1, "f": 2, "m": 3, "mode": "constrained", "kappa": 0.1},
         "seeds": [0, 1, 2, 3]},
    )
    out = tmp_path / "o"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 3
    assert "best |T - kappa|" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_fig3_emits_transition_table(tmp_path):
    out = tmp_path / "fig3"
    assert main(["reproduce", "--figure", "fig3", "--out", str(out)]) == 0
    lines = (out / "fig3_landscape.csv").read_text().splitlines()
    assert lines[0].startswith("v,")
    v = np.array([float(l.split(",")[0]) for l in lines[1:]])
    # grid crosses the causal transition point
    threshold = 4.0 * np.sqrt(3.0) / 9.0
    assert v.min() < threshold < v.max()
    first = lines[1].split(",")
    assert abs(float(first[1]) - 1.0 / 9.0) < 1e-12


def test_reproduce_fig3_puts_lam_plus_in_the_upper_half_plane(tmp_path):
    # in a spacelike (conjugate-pair) row lam_+ is the root with Im > 0
    out = tmp_path / "fig3"
    assert main(["reproduce", "--figure", "fig3", "--out", str(out)]) == 0
    records = [r for r in load(out / "fig3_landscape.json")["records"] if "error" not in r]
    rows = (out / "fig3_landscape.csv").read_text().splitlines()[1:]
    assert len(rows) == len(records)
    spacelike = 0
    for rec, row in zip(records, rows):
        _, re_plus, im_plus, re_minus, im_minus = map(float, row.split(","))
        if rec["causal_offdiag"] == "spacelike":
            spacelike += 1
            assert im_plus > 0.0 and im_minus == -im_plus and re_minus == re_plus
        else:
            assert im_plus == im_minus == 0.0 and re_plus >= re_minus
    assert spacelike > 20


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reproduce_maps_numerical_failure_to_exit_3(tmp_path, monkeypatch, capsys):
    params = {
        "n_t": 8,
        "n_r": 6,
        "states": [{"omega": -1, "k": 1}, {"omega": -2, "k": 2}],
        "scan": {"start": -800.0, "stop": 800.0, "num": 5},
    }
    plan = [("fig5_", {"subcommand": "lattice", "params": params, "seeds": []})]
    monkeypatch.setitem(cli.PLANS, "fig5", plan)
    out = tmp_path / "fig5"
    assert main(["reproduce", "--figure", "fig5", "--out", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def test_default_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DSTLAB_OUT", str(tmp_path / "root"))
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "classify-causal",
            "params": {"roots": [[[1.0, 0.0], [2.0, 0.0]]]},
        },
    )
    assert main(["classify-causal", "--config", cfg]) == 0
    expected = tmp_path / "root" / "classify-causal" / "classifications.json"
    assert expected.is_file()



def test_config_out_key_and_out_flag_precedence(tmp_path, monkeypatch):
    # --out beats $DSTLAB_OUT; a config has no "out" key
    monkeypatch.setenv("DSTLAB_OUT", str(tmp_path / "root"))
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "classify-causal",
            "params": {"roots": [[[1.0, 0.0], [2.0, 0.0]]]},
        },
    )
    assert main(["classify-causal", "--config", cfg, "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "classifications.json").is_file()
    assert not (tmp_path / "root").exists()

def test_reproduce_default_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DSTLAB_OUT", str(tmp_path / "root"))
    assert main(["reproduce", "--figure", "fig3"]) == 0
    outdir = tmp_path / "root" / "reproduce" / "fig3"
    assert (outdir / "fig3_landscape.csv").is_file()
    assert load(outdir / "manifest.json")["subcommand"] == "reproduce"


def test_result_records_each_seeds_armijo_trials_and_renormalizations(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "minimize",
            "params": {"n": 1, "f": 2, "m": 3, "mode": "constrained", "kappa": 0.85,
                       "max_iter": 3},
            "seeds": [0, 1],
        },
    )
    out = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
    for rec in load(out / "result.json")["per_seed"]:
        # the Newton steps that restore the start to T = kappa are iterations
        # and their Armijo trials are counted, so even a 3-iteration budget
        # examines at least one trial per iteration
        assert rec["armijo_trials"] >= rec["iterations"] > 0
        assert isinstance(rec["renormalizations"], int) and rec["renormalizations"] >= 0


def test_result_records_each_seeds_fd_pairs(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "subcommand": "minimize",
            "params": {"n": 1, "f": 2, "m": 3, "mode": "constrained", "kappa": 0.85,
                       "max_iter": 3},
            "seeds": [0, 1],
        },
    )
    out = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
    for rec in load(out / "result.json")["per_seed"]:
        assert isinstance(rec["fd_pairs"], int) and rec["fd_pairs"] >= 0
