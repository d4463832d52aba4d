"""Command-line front end.

Subcommands: enumerate, compose, factorize, check-law, check-yb,
check-fs, check-coend, roundtrip, correspond.  Exit status 0 means every
check passed, 1 means a checker reported failures, 2 means the request
itself was invalid, 141 means the reader closed standard output early.
An unknown name for --theory, --law, --series or --monad exits 2, and
argparse's message lists the valid names.
JSON output is deterministic for a fixed request and seed; the default
sample count can be set with LAWVERE_SAMPLES, read on every call.
check-coend accepts tables whose "schemaVersion" is SCHEMA_VERSION or
absent.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Callable, Optional

from .builtin import BASE_THEORIES
from .correspondence import (composite_correspondence_check,
                             composition_pools, roundtrip_check)
from .distlaw import (BUILTIN_LAWS, BUILTIN_SERIES, PS_LAW, RING_LAW,
                      check_law_axioms, check_yang_baxter, ps_monoid_theory,
                      ring_theory)
from .factorization import check_fs_over_base, factorize
from .fincat import FiniteCategory, Morphism
from .fragments import (FRAGMENTS, FREE_MONOID_MONAD, FREE_RING_MONAD)
from .parser import ParseError, format_term, parse_term
from .profunctor import FiniteProfunctor, compose_prof
from .report import SCHEMA_VERSION
from .sampling import Sampler
from .terms import StructuralError
from .theory import compose, morphism, morphism_to_json

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE, as a shell reports it


def _theories() -> dict:
    out = dict(BASE_THEORIES)
    out["ring"] = ring_theory()
    out["ps-monoid"] = ps_monoid_theory()
    return out


# the law behind each composite theory, which gives its inner and outer
# layers
_COMPOSITE_LAWS = {"ring": RING_LAW, "ps-monoid": PS_LAW}

_CORRESPOND = {
    "ring": (lambda: (BUILTIN_LAWS["ring"], FREE_RING_MONAD, ring_theory())),
    "pointed-semigroup": (lambda: (BUILTIN_LAWS["pointed-semigroup"],
                                   FREE_MONOID_MONAD, ps_monoid_theory())),
}


class OutputError(Exception):
    """The report cannot be written where ``--out`` asks."""


def _emit(args, payload: dict, text: Callable[[dict], str]) -> None:
    """Print ``text(payload)``, or the JSON report with --json; --out
    writes the JSON report to its path instead, with or without --json.
    The text is built only when it is printed."""
    out = getattr(args, "out", None)
    if out is None and not getattr(args, "json", False):
        print(text(payload))
        return
    rendered = json.dumps(payload, sort_keys=True, indent=2)
    if out is None:
        print(rendered)
        return
    try:
        with open(out, "w") as fh:
            fh.write(rendered + "\n")
    except OSError as exc:
        raise OutputError(f"cannot write {out!r}: {exc.strerror}") from None


def _run_check(args, check, *call, **options) -> int:
    """Time ``check(*call, **options)``, emit its report and exit by its
    verdict."""
    t0 = time.perf_counter()
    rep = check(*call, **options)
    rep.wall_time_ms = (time.perf_counter() - t0) * 1000
    _emit(args, rep.to_json_dict(), lambda _: rep.summary())
    return EXIT_PASS if rep.passed else EXIT_FAIL


def cmd_enumerate(args) -> int:
    spec = _theories()[args.theory]
    terms = spec.enumerate_normal(args.arity, args.size)
    payload = {"schemaVersion": SCHEMA_VERSION, "theory": args.theory,
               "arity": args.arity, "sizeBound": args.size,
               "count": len(terms),
               "terms": [format_term(t) for t in terms]}
    _emit(args, payload,
          lambda p: f"{p['count']} normal forms: " + ", ".join(p["terms"]))
    return EXIT_PASS


def cmd_compose(args) -> int:
    spec = _theories()[args.theory]
    first = [parse_term(s, spec, args.source)
             for s in args.first.split(",")]
    f = morphism(spec, args.source, first)
    second = [parse_term(s, spec, f.target)
              for s in args.second.split(",")]
    g = morphism(spec, f.target, second)
    composite = compose(g, f)
    payload = {"schemaVersion": SCHEMA_VERSION,
               "composite": morphism_to_json(composite)}
    _emit(args, payload,
          lambda p: f"{composite.source} -> {composite.target}: " +
                    ", ".join(p["composite"]["components"]))
    return EXIT_PASS


def cmd_factorize(args) -> int:
    spec, law = _theories()[args.theory], _COMPOSITE_LAWS[args.theory]
    comps = [parse_term(s, spec, args.arity)
             for s in args.morphism.split(",")]
    f = morphism(spec, args.arity, comps)
    pair = factorize(spec, law.inner, law.outer, f)
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "theory": args.theory,
        "middle": pair.middle,
        "left": morphism_to_json(pair.left),
        "right": morphism_to_json(pair.right),
    }
    _emit(args, payload,
          lambda p: f"middle {p['middle']}; left "
                    f"[{','.join(p['left']['components'])}]; right "
                    f"[{','.join(p['right']['components'])}]")
    return EXIT_PASS


def _nothing_to_sample(args) -> bool:
    """A sampled check with no samples would PASS having checked nothing:
    say so and let the caller exit 2."""
    if args.samples:
        return False
    hint = (", which LAWVERE_SAMPLES sets when the flag is absent"
            if "LAWVERE_SAMPLES" in os.environ else "")
    print(f"error: --samples is 0{hint}, so there is nothing to check",
          file=sys.stderr)
    return True


def cmd_check_law(args) -> int:
    if _nothing_to_sample(args):
        return EXIT_USAGE
    return _run_check(args, check_law_axioms, BUILTIN_LAWS[args.law],
                      Sampler(seed=args.seed, samples=args.samples))


def cmd_check_yb(args) -> int:
    if _nothing_to_sample(args):
        return EXIT_USAGE
    return _run_check(args, check_yang_baxter, BUILTIN_SERIES[args.series](),
                      Sampler(seed=args.seed, samples=args.samples))


def cmd_check_fs(args) -> int:
    spec, law = _theories()[args.theory], _COMPOSITE_LAWS[args.theory]
    return _run_check(args, check_fs_over_base, spec, law.inner, law.outer,
                      args.arity, args.size)


def cmd_check_coend(args) -> int:
    try:
        with open(args.file) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON or bytes that are not UTF-8;
        # RecursionError: arrays or objects nested too deep to decode
        print(f"cannot read {args.file!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(data, dict) or not all(
            isinstance(data.get(key, {}), dict)
            for key in ("categories", "profunctors")):
        print("invalid tables: the top level, its \"categories\" and its "
              "\"profunctors\" must be JSON objects", file=sys.stderr)
        return EXIT_USAGE
    # a missing version reads as the current one, the only one there is
    version = data.get("schemaVersion", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        print(f"invalid tables: \"schemaVersion\" must be {SCHEMA_VERSION}, "
              f"got {json.dumps(version)}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cats = {name: _category_from_json(name, cdata)
                for name, cdata in data.get("categories", {}).items()}
        profs = {name: _profunctor_from_json(name, pdata, cats)
                 for name, pdata in data.get("profunctors", {}).items()}
        payload = {"schemaVersion": SCHEMA_VERSION,
                   "categories": {n: len(c.morphisms)
                                  for n, c in cats.items()},
                   "profunctors": {n: p.total_size()
                                   for n, p in profs.items()}}
        if "compose" in data:
            pair = data["compose"]
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(n, str) for n in pair)):
                raise StructuralError(
                    "\"compose\" must be a list of two profunctor names")
            for pname in pair:
                if pname not in profs:
                    raise StructuralError(
                        f"\"compose\" names no profunctor {pname!r}")
            gname, fname = pair
            composite = compose_prof(profs[gname], profs[fname])
            payload["composite"] = {
                "of": [gname, fname],
                "size": composite.total_size(),
                "table": {f"{d}|{c}": len(es) for (d, c), es
                          in sorted(composite.table.items(),
                                    key=lambda kv: str(kv[0]))},
            }
    except StructuralError as exc:
        print(f"invalid tables: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(args, payload, functools.partial(json.dumps, sort_keys=True))
    return EXIT_PASS


# JSON values that can name an object, a morphism or an element
_NAME = (str, int, float, bool, type(None))


def _has_names(entry, *keys) -> bool:
    """``entry`` is a JSON object whose ``keys`` all hold names."""
    return isinstance(entry, dict) and all(
        k in entry and isinstance(entry[k], _NAME) for k in keys)


def _field(where: str, data: dict, key: str):
    """``data[key]``, or an error that names ``where`` and the key."""
    if key not in data:
        raise StructuralError(f"{where}: no \"{key}\"")
    return data[key]


def _rows(where: str, data: dict, key: str, ok, every: str) -> list:
    """``data[key]``, which must be a JSON list whose rows all pass ``ok``."""
    rows = _field(where, data, key)
    if not isinstance(rows, list):
        raise StructuralError(f"{where}: \"{key}\" must be a JSON list")
    if not all(ok(row) for row in rows):
        raise StructuralError(f"{where}: every {every}")
    return rows


def _category_from_json(name: str, data) -> FiniteCategory:
    where = f"category {name!r}"
    if not isinstance(data, dict):
        raise StructuralError(f"{where} must be a JSON object")
    objects = _rows(where, data, "objects", lambda o: isinstance(o, str),
                    "object must be a string, since the keys of "
                    "\"identities\" name objects and JSON keys are strings")
    entries = _rows(where, data, "morphisms",
                    lambda m: _has_names(m, "name", "src", "tgt"),
                    "morphism must be an object with \"name\", \"src\" "
                    "and \"tgt\"")
    morphisms = [Morphism(m["name"], m["src"], m["tgt"]) for m in entries]
    rows = _rows(where, data, "composition",
                 lambda r: isinstance(r, list) and len(r) == 3
                 and all(isinstance(x, _NAME) for x in r),
                 "composition row must be a triple [g, f, g after f]")
    comp = {(g, f): h for g, f, h in rows}
    identities = _field(where, data, "identities")
    if not (isinstance(identities, dict) and
            all(isinstance(v, _NAME) for v in identities.values())):
        raise StructuralError(f"{where}: \"identities\" must be a JSON "
                              "object of morphism names")
    return FiniteCategory(name, objects, morphisms, identities, comp)


def _profunctor_from_json(name: str, data, cats: dict) -> FiniteProfunctor:
    where = f"profunctor {name!r}"
    if not _has_names(data, "src", "tgt"):
        raise StructuralError(f"{where} must be a JSON object with category "
                              "names \"src\" and \"tgt\"")
    for side in ("src", "tgt"):
        if data[side] not in cats:
            raise StructuralError(f"{where}: \"{side}\" names no category "
                                  f"{data[side]!r}")
    src, tgt = cats[data["src"]], cats[data["tgt"]]
    table = {}
    for entry in _rows(where, data, "table",
                       lambda e: _has_names(e, "d", "c") and "elements" in e,
                       "\"table\" entry must be an object with \"d\", "
                       "\"c\" and \"elements\""):
        table[(entry["d"], entry["c"])] = _rows(
            where, entry, "elements", lambda x: isinstance(x, _NAME),
            "element must be a string or a number")

    def actions(key: str, side: str) -> dict:
        rows = _rows(where, data, key, lambda a: _has_names(
            a, "morphism", side, "element", "to"),
            f"\"{key}\" entry must be an object with \"morphism\", "
            f"\"{side}\", \"element\" and \"to\"")
        return {(a["morphism"], a[side], a["element"]): a["to"] for a in rows}

    return FiniteProfunctor(name, src, tgt, table, actions("cAction", "d"),
                            actions("dAction", "c"))


def cmd_roundtrip(args) -> int:
    frag = FRAGMENTS[args.monad]
    kwargs = {}
    if not frag.finite:
        kwargs["size_bound"] = args.size
        if not any(frag.carrier(x, args.size)
                   for x in range(args.bound + 1)):
            print(f"--size {args.size} leaves F[x] empty for every "
                  f"x <= --bound {args.bound} in {frag.name}: nothing "
                  "would be checked", file=sys.stderr)
            return EXIT_USAGE
    return _run_check(args, roundtrip_check, frag, args.bound, **kwargs)


def cmd_correspond(args) -> int:
    law, fragment, spec = _CORRESPOND[args.law]()
    if args.samples and not all(composition_pools(spec, args.size)):
        print(f"--size {args.size} leaves no normal forms of arity 1 or 2 "
              "to compose; use a larger --size or --samples 0",
              file=sys.stderr)
        return EXIT_USAGE
    return _run_check(
        args, composite_correspondence_check, law, fragment,
        size_bound=args.size, spec=spec,
        sampler=Sampler(seed=args.seed, samples=args.samples))


class _SamplesDefault(str):
    """The string default of --samples: the command's own default count.

    argparse runs a string default through the option's type only when
    the flag is absent, and does so on every parse, so ``non_negative_int``
    reads LAWVERE_SAMPLES then: the variable sets the default, is checked
    like the flag, never overrides an explicit --samples, and may change
    between two parses by one cached parser."""


def non_negative_int(text: str) -> int:
    """Arities, sizes, bounds, seeds and sample counts are integers >= 0
    (``random.Random`` seeds -n as it seeds n)."""
    if isinstance(text, _SamplesDefault):
        env = os.environ.get("LAWVERE_SAMPLES")
        if env is None:
            return int(text)
        try:
            return non_negative_int(env)
        except (ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(
                f"LAWVERE_SAMPLES must be an integer >= 0, got {env!r}"
            ) from None
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lawvere",
        description="algebraic theories, distributive laws, factorisation "
                    "systems and the finitary-monad dictionary, at desk "
                    "scale")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, samples: Optional[int] = None):
        """--json and --out; with a default sample count, --seed and
        --samples too."""
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON report")
        sp.add_argument("--out", help="write the JSON report to this path "
                                      "instead of stdout")
        if samples is None:
            return
        sp.add_argument("--seed", type=non_negative_int, default=0)
        sp.add_argument("--samples", type=non_negative_int,
                        default=_SamplesDefault(samples),
                        help=f"sample count (default {samples}, or "
                             "LAWVERE_SAMPLES when set)")

    sp = sub.add_parser("enumerate", help="list bounded normal forms")
    sp.add_argument("--theory", required=True, choices=_theories())
    sp.add_argument("--arity", type=non_negative_int, required=True)
    sp.add_argument("--size", type=non_negative_int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("compose", help="compose two tuple morphisms")
    sp.add_argument("--theory", required=True, choices=_theories())
    sp.add_argument("--source", type=non_negative_int, required=True)
    sp.add_argument("--first", required=True,
                    help="comma-separated components of the first morphism")
    sp.add_argument("--second", required=True,
                    help="components of the morphism applied after")
    common(sp)
    sp.set_defaults(func=cmd_compose)

    sp = sub.add_parser("factorize",
                        help="split a composite-theory morphism")
    sp.add_argument("--theory", required=True, choices=_COMPOSITE_LAWS)
    sp.add_argument("--morphism", required=True)
    sp.add_argument("--arity", type=non_negative_int, default=3)
    common(sp)
    sp.set_defaults(func=cmd_factorize)

    sp = sub.add_parser("check-law", help="compatibility diagrams of a law")
    sp.add_argument("--law", required=True, choices=BUILTIN_LAWS)
    common(sp, samples=500)
    sp.set_defaults(func=cmd_check_law)

    sp = sub.add_parser("check-yb", help="hexagons and bracketing agreement")
    sp.add_argument("--series", required=True, choices=BUILTIN_SERIES)
    common(sp, samples=300)
    sp.set_defaults(func=cmd_check_yb)

    sp = sub.add_parser("check-fs",
                        help="factorization sweep over a composite theory")
    sp.add_argument("--theory", required=True, choices=_COMPOSITE_LAWS)
    sp.add_argument("--arity", type=non_negative_int, default=2)
    sp.add_argument("--size", type=non_negative_int, default=5)
    common(sp)
    sp.set_defaults(func=cmd_check_fs)

    sp = sub.add_parser("check-coend",
                        help="validate category/profunctor tables and "
                             "compose by coend")
    sp.add_argument("--file", required=True)
    common(sp)
    sp.set_defaults(func=cmd_check_coend)

    sp = sub.add_parser("roundtrip",
                        help="rebuild a monad from its theory of arities")
    sp.add_argument("--monad", required=True, choices=FRAGMENTS)
    sp.add_argument("--bound", type=non_negative_int, default=3)
    sp.add_argument("--size", type=non_negative_int, default=3,
                    help="enumeration bound for infinite carriers")
    common(sp)
    sp.set_defaults(func=cmd_roundtrip)

    sp = sub.add_parser("correspond",
                        help="composite theory against the composite monad")
    sp.add_argument("--law", required=True, choices=_CORRESPOND)
    sp.add_argument("--size", type=non_negative_int, default=5)
    common(sp, samples=150)
    sp.set_defaults(func=cmd_correspond)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs far more than a parse."""
    return build_parser()


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``), during a report or
        # argparse's help.  Point stdout at devnull, so that the
        # interpreter's final flush of what is still buffered cannot fail,
        # and exit as a process killed by SIGPIPE would.  stdout stays on
        # devnull after the call: its reader is gone.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


def _dispatch(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    # argparse drops a value of "--" (``--morphism=--``) and stores an
    # empty list; no option of this CLI takes a list
    for name, value in vars(args).items():
        if isinstance(value, list):
            print(f"error: argument --{name.replace('_', '-')}: expected "
                  "one argument", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except (ParseError, StructuralError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
