"""Command-line front end.

Output is deterministic for fixed inputs: no timestamps, no randomness.
Exit status 0 on success, 1 on a domain or input error (one machine-readable
error object goes to stderr), 2 on usage errors.

Each subcommand imports the layers it uses when it runs, so a cold call
pays only for those: `witt`, `hall`, `region` and `rank --ring free` never
load the Magnus, ideal, Johnson or symplectic layers.
"""

import argparse
import json
import os
import sys

from . import serialize
from .errors import LietauError, PreconditionError

CONFIG_ENV = "LIETAU_CONFIG"
_DEFAULTS = {"cap": 8, "height": 2, "format": "table"}
_RETIRED = {"verbosity"}   # still accepted in config files, and ignored


def load_config(path=None, overrides=None):
    """Defaults, then the config file, then the non-None overrides (the
    command-line values); the checks apply to the result."""
    cfg = dict(_DEFAULTS)
    path = path or os.environ.get(CONFIG_ENV)
    if path:
        with open(path) as fh:
            data = _decode(fh.read())
        if not isinstance(data, dict):
            raise PreconditionError("config must be a JSON object")
        unknown = sorted(set(data) - set(_DEFAULTS) - _RETIRED)
        if unknown:
            raise PreconditionError("unknown config key: %s"
                                    % ", ".join(unknown))
        cfg.update((key, data[key]) for key in _DEFAULTS if key in data)
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value
    for key in ("cap", "height"):
        if type(cfg[key]) is not int:
            raise PreconditionError("%s must be an integer, got %r"
                                    % (key, cfg[key]))
    if cfg["format"] not in ("table", "json", "csv"):
        raise PreconditionError("format must be table, json or csv, got %r"
                                % (cfg["format"],))
    if cfg["cap"] < 2:
        raise PreconditionError("cap must be >= 2")
    if cfg["height"] < 0:
        raise PreconditionError("height must be >= 0")
    return cfg


def _decode(text):
    """`json.loads`, with nesting too deep for the decoder's recursion
    reported as bad JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep", text, 0) from None


def _read_json_arg(arg):
    """Inline JSON if the argument looks like JSON, otherwise a file path."""
    s = arg.strip()
    if s.startswith("{") or s.startswith("["):
        return _decode(s)
    with open(arg) as fh:
        return _decode(fh.read())


def _emit(text, end="\n"):
    sys.stdout.write(text + end)


def cmd_witt(args, cfg):
    from .hall import witt
    _emit(str(witt(args.k, args.g)))
    return 0


def cmd_hall(args, cfg):
    from .hall import hall_basis, tree_to_str
    from .words import Alphabet, surface_alphabet
    if args.genus is not None:
        alphabet = surface_alphabet(args.genus)
    elif args.alphabet:
        alphabet = Alphabet(args.alphabet.split(","))
    else:
        raise PreconditionError("hall needs --genus or --alphabet")
    for t in hall_basis(args.k, len(alphabet)):
        _emit(tree_to_str(t, alphabet))
    return 0


def cmd_rank(args, cfg):
    if args.ring == "free":
        from .hall import witt
        if args.genus < 1:  # as SurfaceModel refuses it
            raise ValueError("genus must be >= 1")
        rank, torsion = witt(args.k, 2 * args.genus), ()
    else:
        from .surface import SurfaceModel
        model = SurfaceModel(args.genus)
        ideal = (model.symplectic_ideal() if args.ring == "surface"
                 else model.handlebody_ideal())
        rank, torsion = ideal.quotient_rank(args.k), ideal.level(args.k).torsion
    out = {"ring": args.ring, "k": args.k, "genus": args.genus, "rank": rank,
           "torsion": list(torsion)}
    _emit(serialize.dumps(out))
    if torsion:
        sys.stderr.write("warning: torsion %r in the quotient at weight %d\n"
                         % (list(torsion), args.k))
    return 0


def cmd_depth(args, cfg):
    from .johnson import johnson_depth, jprime_depth
    f = serialize.parse_mapping_class(_read_json_arg(args.map))
    cap = cfg["cap"]
    jd = johnson_depth(f, cap)
    jp = jprime_depth(f, cap)
    fmt = lambda v: (">= %d" % cap) if v is None else ("= %d" % v)
    _emit("johnson %s, jprime %s" % (fmt(jd), fmt(jp)))
    return 0


def cmd_tau(args, cfg):
    from .johnson import tau, tau1
    f = serialize.parse_mapping_class(_read_json_arg(args.map))
    value = tau1(f, args.k) if args.free else tau(f, args.k)
    _emit(serialize.dumps(serialize.tau_json(value)))
    return 0


def cmd_obstruct(args, cfg):
    from .johnson import tau
    from .obstruction import grade_decompose
    f = serialize.parse_mapping_class(_read_json_arg(args.map))
    lag = serialize.parse_lagrangian(_read_json_arg(args.lagrangian))
    value = tau(f, args.k)
    gd = grade_decompose(value, lag)
    out = {
        "k": args.k,
        "vanishes": gd.component(0).is_zero(),
        "grades": gd.grades(),
        "components": {str(i): serialize.tau_json(gd.component(i))
                       for i in gd.grades()},
    }
    _emit(serialize.dumps(out))
    return 0


def cmd_scan(args, cfg):
    from .obstruction import robustness_scan
    f = serialize.parse_mapping_class(_read_json_arg(args.map))
    extra = _read_json_arg(args.lagrangians) if args.lagrangians else []
    if not isinstance(extra, list):
        raise PreconditionError("--lagrangians must be a JSON array")
    extra = [serialize.parse_lagrangian(obj) for obj in extra]
    report = robustness_scan(f, args.k, lagrangians=extra, height=cfg["height"])
    out = {
        "k": args.k,
        "scanned": report.scanned,
        "vanishing": [serialize.lagrangian_json(lag) for lag in report.vanishing],
        "nonvanishing_count": report.scanned - len(report.vanishing),
    }
    _emit(serialize.dumps(out))
    return 0


def cmd_region(args, cfg):
    from .region import holds_csv, region_table, region_text_table, rhs_csv
    if args.kmax < 2 or args.gmax < 2:
        raise PreconditionError("region needs --kmax and --gmax >= 2")
    fmt = cfg["format"]
    if fmt == "csv":
        _emit(rhs_csv(args.kmax, args.gmax), end="")
        _emit("")
        _emit(holds_csv(args.kmax, args.gmax), end="")
    elif fmt == "json":
        _emit(serialize.dumps([c.to_json() for c in region_table(args.kmax, args.gmax)]))
    else:
        _emit(region_text_table(args.kmax, args.gmax), end="")
    return 0


def cmd_matrix_check(args, cfg):
    from .intlinalg import charpoly
    from .symplectic import (eigen_pm1_condition, invariant_lagrangian_report,
                             is_symplectic)
    mat = serialize.parse_matrix(_read_json_arg(args.matrix))
    out = {"size": len(mat), "symplectic": is_symplectic(mat)}
    if out["symplectic"]:
        # checked once: both readers take the one characteristic polynomial
        poly = charpoly(mat)
        out["eigen_pm1"] = eigen_pm1_condition(mat, poly=poly)
        report = invariant_lagrangian_report(mat, args.bound, poly=poly)
        out["rational_eigenvalues"] = report.rational_eigenvalues
        out["candidates_tested"] = report.candidates_tested
        out["invariant_lagrangian"] = (
            serialize.lagrangian_json(report.found) if report.found else None)
        out["pair_checks"] = [
            {"factor": pc.factor, "omega_v_vbar": pc.value_str,
             "nonzero": pc.nonzero} for pc in report.pair_checks]
        if report.notes:
            out["notes"] = report.notes
    _emit(serialize.dumps(out))
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="lietau",
        description="free Lie rings, Johnson homomorphisms, and handlebody "
                    "extension obstructions, in exact integer arithmetic")
    p.add_argument("--config", help="JSON config file (or set $%s)" % CONFIG_ENV)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("witt", help="rank of a free Lie ring layer")
    q.add_argument("k", type=int)
    q.add_argument("g", type=int)
    q.set_defaults(fn=cmd_witt)

    q = sub.add_parser("hall", help="list a basic-commutator basis")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--genus", type=int)
    q.add_argument("--alphabet", help="comma-separated generator names")
    q.set_defaults(fn=cmd_hall)

    q = sub.add_parser("rank", help="layer rank of a graded quotient")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--genus", type=int, required=True)
    q.add_argument("--ring", choices=["free", "surface", "handlebody"],
                   default="surface")
    q.set_defaults(fn=cmd_rank)

    q = sub.add_parser("depth", help="Johnson filtration depths of a map")
    q.add_argument("--map", required=True, help="mapping class JSON (file or inline)")
    q.add_argument("--cap", type=int)
    q.set_defaults(fn=cmd_depth)

    q = sub.add_parser("tau", help="Johnson homomorphism value")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--map", required=True)
    q.add_argument("--free", action="store_true",
                   help="punctured-surface (free) coefficients")
    q.set_defaults(fn=cmd_tau)

    q = sub.add_parser("obstruct", help="handlebody obstruction for one Lagrangian")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--map", required=True)
    q.add_argument("--lagrangian", required=True)
    q.set_defaults(fn=cmd_obstruct)

    q = sub.add_parser("scan", help="obstruction over a family of Lagrangians")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--map", required=True)
    q.add_argument("--height", type=int)
    q.add_argument("--lagrangians", help="JSON array of extra Lagrangians")
    q.set_defaults(fn=cmd_scan)

    q = sub.add_parser("region", help="Witt/Levine feasibility tables")
    q.add_argument("--kmax", type=int, default=8)
    q.add_argument("--gmax", type=int, default=8)
    q.add_argument("--format", choices=["table", "json", "csv"])
    q.set_defaults(fn=cmd_region)

    q = sub.add_parser("matrix-check", help="homology-level extension checks")
    q.add_argument("--matrix", required=True, help="row-major integer matrix")
    q.add_argument("--bound", type=int, help="candidate cap for the search")
    q.set_defaults(fn=cmd_matrix_check)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config,
                          {key: getattr(args, key, None) for key in _DEFAULTS})
        return args.fn(args, cfg)
    except LietauError as e:
        error = e.to_json()
    except FileNotFoundError as e:
        error = {"error": "file-not-found", "message": str(e)}
    except json.JSONDecodeError as e:
        error = {"error": "bad-json", "message": str(e)}
    except OSError as e:
        error = {"error": "io-error", "message": str(e)}
    except ValueError as e:
        error = {"error": "bad-input", "message": str(e)}
    sys.stderr.write(serialize.dumps(error) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
