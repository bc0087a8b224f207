"""Command-line experiment runner.

Every subcommand reads a JSON config, runs one batch experiment, and writes
its results plus a run manifest into an output directory.  Configs are
schema-validated up front (unknown keys are errors) so that a bad config
never produces partial output.  jsonschema is imported at the first
validation: ``reproduce`` runs constant configs, which a test validates, and
loads none of it.  Payload files are written deterministically:
the same config yields byte-identical CSV/JSON artifacts; the manifest
records a hash of the config, tool and platform versions, the RNG
algorithm, and every file written.

Exit codes: 0 success, 2 invalid input, 3 any other failure of a run (a
numerical one, or an ``OSError`` writing its output), 4 divergence
detected.  Invalid input is any ``dstlab.InvalidInput``: the config file,
its schema, and the input checks of the library and of the handlers here
all raise it, so ``main`` maps each exception to its exit code in one
place.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .causal import causal_graph, classify
from .core import DiscreteSpacetime, InvalidInput, random_projector
from .correlation import (
    geometry_diagnostics,
    local_correlations,
    planar_square_family,
    projector_from_correlations,
    tetrahedron_family,
    triangle_projector,
)
from .lattice import (
    LatticeGeometry,
    OccupiedState,
    landscape_scan_2d,
)
from .continuum.seas import state_stability_check
from .solver import SolverConfig, landscape_scan, minimize
from .tolerances import DEFAULT, Tolerances

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_DIVERGENCE = 4

RNG_ALGORITHM = "numpy Philox"


# ---------------------------------------------------------------------------
# config schemas

_SEED_ARRAY = {"type": "array", "uniqueItems": True, "items": {"type": "integer", "minimum": 0}}

_TOLERANCE_BLOCK = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        name: {"type": "number", "exclusiveMinimum": 0}
        for name in Tolerances.__dataclass_fields__
    },
}

_SOLVER_PARAMS = {
    "n": {"type": "integer", "minimum": 1},
    "f": {"type": "integer", "minimum": 1},
    "m": {"type": "integer", "minimum": 1},
    "mode": {"enum": ["auxiliary", "constrained"]},
    "mu": {"type": "number"},
    "kappa": {"type": "number"},
    "max_iter": {"type": "integer", "minimum": 1},
    "boost_scale": {"type": "number", "exclusiveMinimum": 0},
    "residual_tol": {"type": "number", "exclusiveMinimum": 0},
}

# a np.linspace grid: the landscape's parameter and the lattice scan's boosts
_GRID = {
    "start": {"type": "number"},
    "stop": {"type": "number"},
    "num": {"type": "integer", "minimum": 2},
}

# [numerator, denominator]; a zero denominator is no number
_RATIONAL_PAIR = {
    "oneOf": [
        {"type": "integer"},
        {
            "type": "array",
            "prefixItems": [{"type": "integer"}, {"type": "integer", "not": {"const": 0}}],
            "minItems": 2,
            "maxItems": 2,
        },
    ]
}

PARAM_SCHEMAS = {
    "minimize": {
        "type": "object",
        "additionalProperties": False,
        "required": ["n", "f", "m"],
        "properties": _SOLVER_PARAMS,
    },
    "pauli-vectors": {
        "type": "object",
        "additionalProperties": False,
        "required": ["m"],
        "properties": {
            k: v for k, v in _SOLVER_PARAMS.items() if k not in ("n", "f")
        },
    },
    "classify-causal": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "roots": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
            "sample": {
                "type": "object",
                "additionalProperties": False,
                "required": ["n", "m", "f"],
                "properties": {
                    k: _SOLVER_PARAMS[k] for k in ("n", "m", "f", "boost_scale")
                },
            },
        },
        "oneOf": [{"required": ["roots"]}, {"required": ["sample"]}],
    },
    "landscape": {
        "type": "object",
        "additionalProperties": False,
        "required": ["family", "start", "stop", "num"],
        "properties": {
            "family": {"enum": ["triangle", "tetrahedron", "planar-square"]},
            **_GRID,
            "mu": {"type": "number"},
        },
    },
    "lattice": {
        "type": "object",
        "additionalProperties": False,
        "required": ["n_t", "n_r", "states", "scan"],
        "properties": {
            "n_t": {"type": "integer", "minimum": 1},
            "n_r": {"type": "integer", "minimum": 1},
            "states": {
                "type": "array",
                "minItems": 2,
                "maxItems": 2,
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["omega", "k"],
                    "properties": {
                        "omega": {"type": "integer"},
                        "k": {"type": "integer"},
                        "phi": {"type": "number", "exclusiveMinimum": 0},
                        "tau": {"type": "number"},
                    },
                },
            },
            "weights": {
                "oneOf": [
                    {"type": "string"},
                    {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["rho_t", "rho_r"],
                        "properties": {
                            "rho_t": {"type": "array", "items": {"type": "number"}},
                            "rho_r": {"type": "array", "items": {"type": "number"}},
                        },
                    },
                ]
            },
            "scan": {
                "type": "object",
                "additionalProperties": False,
                "required": ["start", "stop", "num"],
                "properties": _GRID,
            },
        },
    },
    "lightcone-check": {
        "type": "object",
        "additionalProperties": False,
        "required": ["values"],
        "properties": {
            "values": {
                "type": "object",
                "additionalProperties": False,
                "required": ["C0", "C1", "C2", "C3", "D0", "D1", "D2", "D3"],
                "properties": {
                    name: _RATIONAL_PAIR
                    for name in ("C0", "C1", "C2", "C3", "D0", "D1", "D2", "D3")
                },
            }
        },
    },
    "state-stability": {
        "type": "object",
        "additionalProperties": False,
        "required": ["table", "masses"],
        "properties": {
            "table": {"type": "string"},
            "masses": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "number", "exclusiveMinimum": 0},
            },
            "tol": {"type": "number", "exclusiveMinimum": 0},
        },
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["subcommand", "params"],
    "properties": {
        "subcommand": {"enum": sorted(PARAM_SCHEMAS)},
        "params": {"type": "object"},
        "seeds": _SEED_ARRAY,
        "tolerances": _TOLERANCE_BLOCK,
    },
}


@functools.cache
def _validators():
    """Draft 2020-12 validators by subcommand, and ``best_match``.

    jsonschema is imported here alone, at the first validation, so that a run
    that validates nothing never loads it.  The schemas are constants, so
    their metaschema check is a test.
    """
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match

    schemas = {
        sub: dict(CONFIG_SCHEMA, properties=dict(CONFIG_SCHEMA["properties"], params=params))
        for sub, params in PARAM_SCHEMAS.items()
    }
    return {key: Draft202012Validator(schema) for key, schema in schemas.items()}, best_match


# ---------------------------------------------------------------------------
# serialization helpers

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _json_bytes(obj):
    return (json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n").encode()


def _csv_bytes(header, columns):
    """CSV of equal-length columns.

    A list of str is written as it is (the join refuses any other item in
    it).  Any other column is read by np.asarray: a float column is written
    with repr, any other with str.
    """
    cells = []
    for column in columns:
        if not (isinstance(column, list) and column and isinstance(column[0], str)):
            column = np.asarray(column)
            column = map(repr if column.dtype.kind == "f" else str, column.tolist())
        cells.append(column)
    lines = [",".join(header), *map(",".join, zip(*cells))]
    return ("\n".join(lines) + "\n").encode()


def _config_hash(config):
    payload = {
        "subcommand": config["subcommand"],
        "params": config["params"],
        "seeds": config.get("seeds", []),
        "tolerances": config.get("tolerances", {}),
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _validate(config, subcommand):
    validators, best_match = _validators()
    error = best_match(validators[subcommand].iter_errors(config))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise InvalidInput(f"config invalid at {path}: {error.message}")


# ---------------------------------------------------------------------------
# subcommand handlers: params -> {filename: bytes}, exit code

def _result_payload(res):
    return {
        "mode": res.mode,
        "action": res.action,
        "constraint": res.constraint,
        "multiplier": res.multiplier,
        "residual": res.residual,
        "gradient_norm": res.gradient_norm,
        "status": res.status,
        "best_seed": res.seed,
        "per_seed": res.per_seed,
    }


def _pauli_csv(corr):
    return _csv_bytes(("x", "rho", "v1", "v2", "v3"),
                      (np.arange(corr.m), corr.rho, *corr.vectors.T))


def _run_minimize(params, seeds, tol, config_dir):
    # the SolverConfig fields are the minimize params other than n, f and m;
    # SolverConfig checks the mode rule, random_projector the rank, and
    # minimize defaults mu to 1/(2n)
    kwargs = {k: v for k, v in params.items() if k not in ("n", "f", "m")}
    cfg = SolverConfig(seeds=seeds, **kwargs)
    res = minimize(DiscreteSpacetime(params["n"], params["m"]), params["f"], cfg, tol)
    outputs = {"result.json": _json_bytes(_result_payload(res))}
    if params["n"] == 1 and params["f"] == 2:
        corr = local_correlations(res.projector)
        outputs["pauli_vectors.csv"] = _pauli_csv(corr)
        outputs["geometry.json"] = _json_bytes(geometry_diagnostics(corr, tol))
    code = EXIT_DIVERGENCE if res.status == "divergence" else EXIT_OK
    return outputs, code


def _run_pauli_vectors(params, seeds, tol, config_dir):
    full = dict(params, n=1, f=2)
    return _run_minimize(full, seeds, tol, config_dir)


def _run_classify_causal(params, seeds, tol, config_dir):
    if "roots" in params:
        records = []
        for multiset in params["roots"]:
            lam = np.array([complex(re, im) for re, im in multiset])
            records.append(
                {
                    "roots": [complex(z) for z in lam],
                    "class": classify(lam, tol=tol).value,
                }
            )
        counts = {}
        for rec in records:
            counts[rec["class"]] = counts.get(rec["class"], 0) + 1
        payload = {"multisets": records, "counts": counts}
        return {"classifications.json": _json_bytes(payload)}, EXIT_OK

    sample = params["sample"]
    if not seeds:
        raise InvalidInput("sampled classification needs seeds")
    space = DiscreteSpacetime(sample["n"], sample["m"])
    graphs = []
    for seed in seeds:
        proj = random_projector(
            space, sample["f"], seed, sample.get("boost_scale", 1.0), tol
        )
        graph = causal_graph(proj)
        off = graph.off_diagonal_class()
        graphs.append(
            {
                "seed": seed,
                "graph": json.loads(graph.to_json()),
                "off_diagonal": off.value if off is not None else "mixed",
            }
        )
    return {"classifications.json": _json_bytes({"graphs": graphs})}, EXIT_OK


def _landscape_family(params, tol):
    name = params["family"]
    if name == "triangle":
        return lambda v: triangle_projector(v, tol)
    space = DiscreteSpacetime(1, 4)
    family = tetrahedron_family if name == "tetrahedron" else planar_square_family

    def build(v):
        return projector_from_correlations(space, family(v), tol)

    return build


def _run_landscape(params, seeds, tol, config_dir):
    grid = np.linspace(params["start"], params["stop"], params["num"])
    mu = params.get("mu", 0.5)
    records = landscape_scan(_landscape_family(params, tol), grid, mu=mu)
    ok = [rec for rec in records if "error" not in rec]
    lam_plus = np.array([rec["roots"][-1] for rec in ok], dtype=complex)
    lam_minus = np.array([rec["roots"][0] for rec in ok], dtype=complex)
    outputs = {
        "landscape.csv": _csv_bytes(
            ("v", "re_lam_plus", "im_lam_plus", "re_lam_minus", "im_lam_minus"),
            ([rec["param"] for rec in ok], lam_plus.real, lam_plus.imag,
             lam_minus.real, lam_minus.imag),
        ),
        "landscape.json": _json_bytes({"mu": mu, "records": records}),
    }
    return outputs, EXIT_OK


def _run_lattice(params, seeds, tol, config_dir):
    geom = LatticeGeometry(params["n_t"], params["n_r"])
    state_a, state_b = (OccupiedState(**s) for s in params["states"])
    weights = params.get("weights", "sphere")
    if isinstance(weights, dict):
        weights = (weights["rho_t"], weights["rho_r"])
    scan_grid = params["scan"]
    taus = np.linspace(scan_grid["start"], scan_grid["stop"], scan_grid["num"])
    scan = landscape_scan_2d(geom, state_a, state_b, taus, weights=weights)
    # a linspace through zero may miss it by an ulp; the minima records carry
    # the grid's own value, so the flags compare against that
    i0 = int(np.argmin(np.abs(taus)))
    on_grid = bool(abs(taus[i0]) < 1e-12)
    t0 = float(taus[i0])

    def at_origin(records):
        return on_grid and any(m[0] == t0 and m[1] == t0 for m in records)

    origin = {
        "on_grid": on_grid,
        "value": float(scan.surface[i0, i0]) if on_grid else None,
        "is_local_minimum": at_origin(scan.minima),
        "is_global_minimum": at_origin(scan.global_minima),
    }
    minima = {
        "local_minima": [list(m) for m in scan.minima],
        "global_minima": [list(m) for m in scan.global_minima],
        "origin": origin,
    }
    # each grid value is formatted once, as _csv_bytes would format the float
    tau_text = [repr(t) for t in scan.tau_values.tolist()]
    outputs = {
        "surface.csv": _csv_bytes(
            ("tau1", "tau2", "S"),
            ([t for t in tau_text for _ in tau_text], tau_text * len(tau_text),
             scan.surface.ravel()),
        ),
        "minima.json": _json_bytes(minima),
    }
    return outputs, EXIT_OK


def _run_lightcone_check(params, seeds, tol, config_dir):
    # sympy loads only for this subcommand
    from .continuum.lightcone import (
        expansion_product,
        gradient_expansion,
        standard_expansion,
    )

    kernel = standard_expansion(params["values"])
    chain = expansion_product(kernel)
    grad = gradient_expansion(chain)
    payload = {
        "kernel": json.loads(kernel.to_json()),
        "closed_chain": json.loads(chain.to_json()),
        "gradient": json.loads(grad.to_json()),
    }
    return {"expansion.json": _json_bytes(payload)}, EXIT_OK


def _run_state_stability(params, seeds, tol, config_dir):
    path = Path(params["table"])
    if not path.is_absolute():
        path = config_dir / path
    if not path.is_file():
        raise InvalidInput(f"table file not found: {path}")
    try:
        # a one-row table parses to a 0-d record
        table = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    except (ValueError, IndexError) as exc:  # IndexError: an empty file
        raise InvalidInput(f"cannot parse table {path}: {exc}")
    names = table.dtype.names
    if names is None or set(names) != {"qsq", "a", "b"}:
        raise InvalidInput(f"table needs columns qsq,a,b; found {names}")
    if table.size == 0:
        raise InvalidInput(f"table {path} has a header but no rows")
    if not all(np.isfinite(table[name]).all() for name in names):
        # genfromtxt reads a blank cell as nan
        raise InvalidInput(f"table {path} has a blank or non-finite cell")
    report = state_stability_check(
        table["qsq"], table["a"], table["b"],
        params["masses"], tol=params.get("tol", 1e-9),
    )
    report["shell_values"] = [
        {"mass": m, "value": v} for m, v in sorted(report["shell_values"].items())
    ]
    return {"stability.json": _json_bytes(report)}, EXIT_OK


# ---------------------------------------------------------------------------
# reproduce: the plan of each shipped reference experiment, (output prefix,
# config) pairs; the configs are constants, so their validation is a test

PLANS = {
    "fig1-2": [
        (f"m{m}_", {"subcommand": "pauli-vectors", "params": {"m": m}, "seeds": list(range(8))})
        for m in (4, 5, 8, 9)
    ],
    "fig3": [
        (
            "fig3_",
            {
                "subcommand": "landscape",
                "params": {"family": "triangle", "start": 2.0 / 3.0, "stop": 0.9, "num": 71,
                           "mu": 0.5},
                "seeds": [],
            },
        )
    ],
    "fig5": [
        (
            "fig5_",
            {
                "subcommand": "lattice",
                "params": {
                    "n_t": 8,
                    "n_r": 6,
                    "states": [{"omega": -1, "k": 1}, {"omega": -2, "k": 2}],
                    "weights": "sphere",
                    "scan": {"start": -2.5, "stop": 2.5, "num": 61},
                },
                "seeds": [],
            },
        )
    ],
}
FIGURES = tuple(PLANS)


# ---------------------------------------------------------------------------
# orchestration

HANDLERS = {
    "minimize": _run_minimize,
    "pauli-vectors": _run_pauli_vectors,
    "classify-causal": _run_classify_causal,
    "landscape": _run_landscape,
    "lattice": _run_lattice,
    "lightcone-check": _run_lightcone_check,
    "state-stability": _run_state_stability,
}


def _reject_constant(token):
    # json reads NaN, Infinity and -Infinity, which are not JSON, as floats
    # that every "number" schema admits
    raise ValueError(f"{token} is not a JSON number")


def _finite_float(token):
    # json reads a literal beyond the float range, such as 1e400, as inf,
    # which every "number" schema admits
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} overflows a float")
    return value


def _load_json(path):
    """The JSON document at ``path``; an unreadable file or invalid JSON is InvalidInput."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
    except OSError as exc:
        raise InvalidInput(f"cannot read config: {exc}")
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep to parse
        raise InvalidInput(f"config is not valid JSON: {exc}")


def _resolve_out(cli_out, *subdirs):
    """--out, else ``subdirs`` under $DSTLAB_OUT or, unset, dstlab-out."""
    if cli_out is not None:
        return Path(cli_out)
    return Path(os.environ.get("DSTLAB_OUT") or "dstlab-out", *subdirs)


def _write_run(outdir, config, outputs, code):
    outdir.mkdir(parents=True, exist_ok=True)
    index = []
    for name in sorted(outputs):
        payload = outputs[name]
        (outdir / name).write_bytes(payload)
        index.append(
            {
                "path": name,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "bytes": len(payload),
            }
        )
    manifest = {
        "config_sha256": _config_hash(config),
        "subcommand": config["subcommand"],
        "seeds": config.get("seeds", []),
        "tool": {"name": "dstlab", "version": __version__},
        "rng": {"algorithm": RNG_ALGORITHM},
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "system": platform.platform(),
        },
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "status": "divergence" if code == EXIT_DIVERGENCE else "ok",
        "outputs": index,
    }
    (outdir / "manifest.json").write_bytes(_json_bytes(manifest))


def _run(request, plan, outdir, tol, config_dir):
    """Execute each (prefix, config) of ``plan`` and write one run for ``request``.

    Returns the worst exit code.  A failure anywhere in the plan raises
    before anything is written.
    """
    outputs = {}
    worst = EXIT_OK
    for prefix, config in plan:
        handler = HANDLERS[config["subcommand"]]
        payloads, code = handler(config["params"], config.get("seeds", []), tol, config_dir)
        worst = max(worst, code)
        outputs.update((prefix + name, payload) for name, payload in payloads.items())
    _write_run(outdir, request, outputs, worst)
    return worst


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dstlab",
        description="batch experiments on discrete fermion systems",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name in sorted(PARAM_SCHEMAS):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", help="output directory")

    rep = sub.add_parser("reproduce", help="run a canned reference experiment")
    rep.add_argument("--figure", required=True,
                     help="one of: " + ", ".join(FIGURES))
    rep.add_argument("--out", help="output directory")
    return parser


@functools.cache
def _parser():
    # built once per process: reproduce plans and benchmark passes call main repeatedly
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.subcommand == "reproduce":
            if args.figure not in PLANS:
                raise InvalidInput(f"unknown figure {args.figure!r}; have {FIGURES}")
            # the manifest hashes the canned request
            request = {"subcommand": "reproduce", "params": {"figure": args.figure},
                       "seeds": []}
            outdir = _resolve_out(args.out, "reproduce", args.figure)
            return _run(request, PLANS[args.figure], outdir, DEFAULT, Path.cwd())
        config_path = Path(args.config)
        config = _load_json(config_path)
        # a config that is not an object fails validation below
        if isinstance(config, dict) and config.get("subcommand") != args.subcommand:
            raise InvalidInput(
                f"config is for {config.get('subcommand')!r}, invoked as {args.subcommand!r}"
            )
        _validate(config, args.subcommand)
        tol = DEFAULT.with_(**config.get("tolerances", {}))
        outdir = _resolve_out(args.out, args.subcommand)
        return _run(config, [("", config)], outdir, tol, config_path.resolve().parent)
    except InvalidInput as exc:
        error, code = exc, EXIT_VALIDATION
    except (ValueError, RuntimeError, OSError, np.linalg.LinAlgError) as exc:
        error, code = exc, EXIT_NUMERICAL
    print(f"dstlab: error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
