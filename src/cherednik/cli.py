"""Command line front end.

Every subcommand is a thin adapter: parse exact parameters, call one
library operation, serialize the report.  Exit codes: 0 success; 1 a
mathematical identity failed (a FAIL verdict, or an AssertionError with
its traceback); 2 a refused input or an exceeded cap, i.e. any ValueError,
printed as one `error:` line.
"""
import argparse
import json
import re
import sys

from .calogero_moser import dirac_partition
from .clifford import pin_cover_holds
from .dirac import (
    delta_element,
    dirac_element,
    dirac_split,
    verify_dirac_square,
)
from .groups import build_group, export_data
from .modules import (
    baby_verma,
    dirac_cohomology,
    one_dimensional_quotient,
    standard_module,
    unitarity_report,
)
from .pbw import cherednik_family, corrupted_family, gaha_family, pbw_check
from .scalars import parse_scalar, scalar_map_str, scalar_str


def _parse_c(entries):
    """--c 1/2 gives a constant; repeated --c long=1 --c short=1/2 gives a
    per-class map, each class named once."""
    if not entries:
        return 1
    pairs = [e for e in entries if "=" in e]
    plain = [e for e in entries if "=" not in e]
    if pairs and plain:
        raise ValueError("mix of per-class and constant --c values")
    if plain:
        if len(plain) > 1:
            raise ValueError("more than one constant --c value")
        return parse_scalar(plain[0])
    out = {}
    for e in pairs:
        name, _, val = e.partition("=")
        if name.strip() in out:
            raise ValueError(f"repeated --c class {name.strip()!r}")
        out[name.strip()] = parse_scalar(val)
    return out


def _join_negatives(argv):
    """argv with each flag joined to a following negative scalar (--c -1/3
    becomes --c=-1/3), which argparse would read as a flag."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and tok.startswith("-"):
            try:
                parse_scalar(tok)
                out[-1] += "=" + tok
                continue
            except ValueError:
                pass
        out.append(tok)
    return out


def _load_config(path):
    cfg = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {raw.strip()!r}")
                key, _, val = line.partition("=")
                if key.strip() in cfg:
                    raise ValueError(f"repeated config key {key.strip()!r}")
                cfg[key.strip()] = val.strip()
    except OSError as err:
        raise ValueError(f"cannot read config file: {err}")
    return cfg


def _apply_config(parser, args):
    """Fill unset flags from the key-value file; flags win.  Each value
    goes through the subcommand's own flag, so its type and choices
    apply, and a key the subcommand does not read is refused."""
    if not args.config:
        return
    argv = []
    for key, val in _load_config(args.config).items():
        if key in ("command", "handler", "config") or key not in vars(args):
            raise ValueError(f"unknown config key {key!r} for "
                             f"{args.command}")
        if getattr(args, key) is not None:
            continue
        if key == "c":
            # commas split entries, except inside cyclo(...)
            for part in re.split(r",(?![^()]*\))", val):
                argv += ["--c", part.strip()]
        elif key == "simple":
            if val.lower() not in ("1", "true", "yes", "0", "false", "no"):
                raise ValueError(f"config key 'simple' takes true or false, "
                                 f"not {val!r}")
            if val.lower() in ("1", "true", "yes"):
                argv.append("--simple")
        else:
            argv += ["--" + key, val]
    cfg = parser.parse_args(_join_negatives([args.command] + argv))
    for key, val in vars(cfg).items():
        if getattr(args, key) is None:
            setattr(args, key, val)


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=scalar_str) + "\n"


def _emit(args, payload, table_lines):
    if args.format == "json":
        text = _json_text(payload)
    else:
        text = "\n".join(table_lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise ValueError(f"cannot write output file: {err}")
    else:
        sys.stdout.write(text)


def _c_strings(c):
    if isinstance(c, dict):
        return scalar_map_str(c)
    return scalar_str(c)


def _build_family(args, group):
    """(family, t, c) for --preset; a flag the preset does not read is
    refused, not ignored."""
    preset = args.preset or "cherednik"
    reads = {"cherednik": ("t", "c"), "gaha": ("c",), "corrupted": ("kind",)}
    for flag in ("t", "c", "kind"):
        if getattr(args, flag) is not None and flag not in reads[preset]:
            raise ValueError(f"--preset {preset} does not read --{flag}")
    t, c = parse_scalar(args.t or "1"), _parse_c(args.c)
    if preset == "cherednik":
        return cherednik_family(group, t, c), t, c
    if preset == "gaha":
        return gaha_family(group, c), t, c
    return corrupted_family(group, kind=args.kind), t, c


# --------------------------------------------------------------------------
# subcommands


def cmd_verify(args):
    group = build_group(args.group)
    fam, t, c = _build_family(args, group)

    identities = []

    def record(name, passed):
        identities.append({"identity": name, "passed": passed})

    record("pbw", pbw_check(fam)["passed"])
    if identities[0]["passed"]:
        record("dirac-square", verify_dirac_square(fam)["equality"])
        if fam.space == "polarized":
            # the x/y split and the diagonal embedding only exist there
            dx, dy = dirac_split(fam)
            d = dirac_element(fam)
            record("split-squares", (not dx * dx) and (not dy * dy)
                   and dx + dy == d)
            record("delta-invariance",
                   all(delta_element(fam, w) * d == d * delta_element(fam, w)
                       for w in group.generator_indices))
        record("pin-cover", pin_cover_holds(group))
    else:
        for name in ("dirac-square", "split-squares", "delta-invariance",
                     "pin-cover"):
            record(name, None)

    ok = all(e["passed"] for e in identities)
    payload = {
        "group": group.catalogue_id,
        "preset": fam.preset_tag,
        "t": scalar_str(t),
        "c": _c_strings(c),
        "identities": identities,
        "passed": ok,
    }
    lines = [f"group {group.catalogue_id}  preset {fam.preset_tag}"]
    for e in identities:
        state = {True: "pass", False: "FAIL", None: "skipped"}[e["passed"]]
        lines.append(f"  {e['identity']:<17} {state}")
    _emit(args, payload, lines)
    return 0 if ok else 1


def _build_module(args, group, t, c):
    sigma = args.sigma
    if sigma is None:
        raise ValueError("--sigma is required")
    if args.simple and t != 0:
        raise ValueError("--simple needs --t 0")
    if t == 1:
        if args.K is None:
            return standard_module(group, sigma, c)
        return standard_module(group, sigma, c, args.K)
    if t != 0:
        raise ValueError("modules are implemented at t = 0 and t = 1")
    if args.K is not None:
        raise ValueError("--K needs --t 1: a t = 0 module reports every "
                         "degree")
    if args.simple:
        return one_dimensional_quotient(group, sigma, c)
    return baby_verma(group, sigma, c)


def cmd_dirac_cohomology(args):
    group = build_group(args.group)
    t = parse_scalar(args.t or "1")
    c = _parse_c(args.c)
    module = _build_module(args, group, t, c)
    report = dirac_cohomology(module)
    report["t"] = scalar_str(t)
    report["c"] = _c_strings(c)
    lines = [f"H_D for {report['kind']} module of {args.sigma} over "
             f"{group.catalogue_id}"]
    for entry in report["H_D"]:
        cells = " ".join(f"({k},{l})" for k, l in entry["cells"])
        lines.append(f"  {entry['irrep']:<8} x{entry['multiplicity']}  "
                     f"cells {cells}")
    if not report["H_D"]:
        lines.append("  (zero)")
    _emit(args, report, lines)
    return 0


def cmd_partition(args):
    group = build_group(args.group)
    c = _parse_c(args.c)
    payload = dirac_partition(group, c).to_data()
    lines = [f"Dirac partition of Irr({group.catalogue_id})"]
    for i, block in enumerate(payload["blocks"]):
        lines.append(f"  block {i}: " + " ".join(block))
    for entry in payload["undecided_pairs"]:
        a, b = entry["pair"]
        lines.append(f"  undecided: {a} ~ {b}")
    _emit(args, payload, lines)
    return 0


def cmd_unitarity(args):
    group = build_group(args.group)
    if args.sigma is None:
        raise ValueError("--sigma is required")
    c = _parse_c(args.c)
    report = unitarity_report(group, args.sigma, c, args.K)
    report["t"] = "1/1"
    report["c"] = _c_strings(c)
    lines = [f"unitarity report for M({args.sigma}) over "
             f"{group.catalogue_id}"]
    for v in report["gram_verdicts"]:
        state = "psd" if v["psd"] else "NOT psd"
        lines.append(f"  degree {v['degree']}: {state}")
    for v in report["violations"]:
        where = f" at (k,l)=({v['k']},{v['l']})" if "k" in v else \
            f" at l={v['l']}"
        lines.append(f"  violation ({v['module']}): mu {v['mu']}{where} "
                     f"gap {v['gap']} > {v['bound']}")
    lines.append(f"  consistent: {report['consistent']}")
    _emit(args, report, lines)
    return 0


def cmd_export_group(args):
    group = build_group(args.group)
    payload = export_data(group)
    lines = [
        f"group {group.catalogue_id}: order {group.order}, rank {group.n}",
        f"  classes: {' '.join(group.class_names)}",
        f"  irreps:  {' '.join(group.irrep_labels)}",
        f"  reflections: {len(group.reflections)}",
        f"  invariant degrees: "
        + " ".join(str(d) for d in group.invariant_degrees),
    ]
    _emit(args, payload, lines)
    return 0


def cmd_pbw_check(args):
    group = build_group(args.group)
    fam, _, _ = _build_family(args, group)
    report = pbw_check(fam)
    report["group"] = group.catalogue_id
    report["preset"] = fam.preset_tag
    lines = [f"pbw check for {group.catalogue_id} preset {fam.preset_tag}: "
             + ("pass" if report["passed"] else "FAIL")]
    for f in report["failures"]:
        lines.append(f"  condition {f['condition']} at w={f['w']}: "
                     f"{f.get('detail', '')}")
    _emit(args, report, lines)
    return 0 if report["passed"] else 1


# --------------------------------------------------------------------------
# wiring


class _Once(argparse.Action):
    """Store a flag's value; a repeat is refused, not run at its last."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise ValueError(f"repeated flag {option_string}")
        setattr(namespace, self.dest, self.const or values)


_FLAGS = {
    "group": {},
    "t": {},
    "c": dict(action="append",
              help="constant value or repeatable class=value"),
    "K": dict(type=int),
    "sigma": {},
    "preset": dict(choices=("cherednik", "gaha", "corrupted")),
    "kind": dict(help="corruption kind for --preset corrupted"),
    "simple": dict(nargs=0, const=True,
                   help="use the one-dimensional quotient at t = 0"),
    "format": dict(choices=("json", "table")),
    "out": {},
    "config": dict(help="key=value file of flags; explicit flags win"),
}

# subcommand -> (handler, the flags it reads besides format, out, config)
_COMMANDS = {
    "verify": (cmd_verify, "group t c preset kind"),
    "dirac-cohomology": (cmd_dirac_cohomology, "group t c K sigma simple"),
    "partition": (cmd_partition, "group c"),
    "unitarity": (cmd_unitarity, "group c K sigma"),
    "export-group": (cmd_export_group, "group"),
    "pbw-check": (cmd_pbw_check, "group t c preset kind"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cherednik",
        description="exact Dirac-operator computations for rational "
                    "Cherednik and graded Hecke algebras")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        sub = subs.add_parser(name)
        for flag in flags.split() + ["format", "out", "config"]:
            sub.add_argument("--" + flag, **{"action": _Once, **_FLAGS[flag]})
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negatives(
            sys.argv[1:] if argv is None else argv))
        _apply_config(parser, args)
        if args.format is None:
            args.format = "table"
        if not args.group:
            raise ValueError("--group is required")
        return args.handler(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
