"""Command-line front end.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification mismatch, 2 usage error, 3 ring-assumption error, 141
(128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from functools import partial
from itertools import chain, islice, permutations
from typing import TYPE_CHECKING

# Each handler imports the modules it runs where it runs them: every command
# is a process of its own, and compiles only those (check-ring compiles no
# table module, and only the strata paths compile the Weyl walk).
from .errors import (
    ConfigurationError,
    ContractError,
    ResourceLimitError,
    RingAssumptionError,
    VerificationError,
)
from .ringcond import RingSpec, check_ring, format_ring, parse_ring
from .rootdata import (
    CLOSED_FORM,
    COMPLEX_BUILT,
    STRATA,
    RootSystem,
    build_root_system,
    mask_from_indices,
    mask_indices,
    parse_type,
)

if TYPE_CHECKING:
    from .tables import ExtTable

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RING = 3
EXIT_PIPE = 141

# verify --all-pairs sweeps 4^rank pairs: every type of rank <= 8, E8 included
MAX_PAIRS = 1 << 16
# zelevinsky round-trips all 2^(k-1) edge subsets: k <= 17
MAX_EDGES = 16


def _parse_subset(text: str, rank: int) -> int:
    text = text.strip()
    if text in ("", "-"):
        return 0
    try:
        indices = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ConfigurationError(f"cannot parse subset {text!r}") from None
    return mask_from_indices(indices, rank)


def _parse_query(args) -> tuple[RootSystem, RingSpec | None, int, int]:
    """Type, ring (``None`` when not given), I and J of a subcommand, parsed
    in that order; an absent subset reads as {}."""
    series, rank = parse_type(args.type)
    rs = build_root_system(series, rank)
    spec = None if args.ring is None else parse_ring(args.ring)
    return (rs, spec, _parse_subset(getattr(args, "I", ""), rank),
            _parse_subset(getattr(args, "J", ""), rank))


def _subset_list(mask: int) -> list[int]:
    return list(mask_indices(mask))


def _query_dict(rs: RootSystem, spec: RingSpec | None, **extra) -> dict:
    query: dict = {"series": rs.series, "rank": rs.rank}
    if spec is not None:
        query["ring"] = format_ring(spec)
    query.update(extra)
    return query


def render_table(table: ExtTable, fmt: str, query: dict, method: str,
                 extra: dict | None = None) -> str:
    if fmt == "tsv":
        lines = ["degree\trank\ttorsion"]
        for degree, piece in sorted(table.entries.items()):
            if piece.is_zero():
                continue
            torsion = ",".join(str(t) for t in sorted(piece.torsion)) or "-"
            lines.append(f"{degree}\t{piece.rank}\t{torsion}")
        return "\n".join(lines) + "\n"
    payload = {"query": query, "method": method, "table": table.to_json_dict()}
    if table.outside_hypotheses:
        payload["outside_hypotheses"] = True
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True) + "\n"


def emit_table(table: ExtTable, fmt: str, query: dict, method: str,
               extra: dict | None = None) -> None:
    sys.stdout.write(render_table(table, fmt, query, method, extra))


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p: argparse.ArgumentParser, ring_default: str | None = "Q") -> None:
    """The options every root-system subcommand reads: its type and ring."""
    p.add_argument("--type", required=True, metavar="XN",
                   help="root-system type, e.g. A2, B3, G2; simple roots are "
                        "indexed 0..rank-1 along the Dynkin chain (branch/short "
                        "nodes last, as in the standard tables)")
    if ring_default is None:  # an empty --ring also means none
        p.add_argument("--ring", default=None, type=lambda text: text or None,
                       help="coefficient ring: 'Q' or 'q=<prime power>,d=<n>'")
    else:
        p.add_argument("--ring", default=ring_default,
                       help="coefficient ring: 'Q' or 'q=<prime power>,d=<n>' "
                            f"(default {ring_default})")


# the options only some subcommands read, each added where its handler reads it
_OPTIONS = {
    "--format": {"choices": ("json", "tsv"), "default": "json"},
    "--cache-dir": {"help": "accepted and ignored: no Weyl cache is read or written"},
    "--assume-theta": {"action": "store_true",
                       "help": "acknowledge the character-lattice comparison assumption"},
    "--dump-complex": {"action": "store_true",
                       "help": "include every built complex in the JSON output"},
}


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_OPTIONS[name])


def _pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--I", default="", help="comma-separated simple-root indices (empty = {})")
    p.add_argument("--J", default="", help="comma-separated simple-root indices (empty = {})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinberg-ext",
        description="Exact Ext tables for generalized Steinberg modules: "
                    "closed forms checked against integer subset-lattice complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ext", help="Ext table between two Steinberg-type modules")
    _add_common(p)
    _pair_args(p)
    _add_options(p, "--format", "--dump-complex")
    p.add_argument("--method", choices=(CLOSED_FORM, COMPLEX_BUILT, "both"),
                   default=CLOSED_FORM)
    p.add_argument("--center-rank", type=int, default=0)

    p = sub.add_parser("ext-induced", help="Ext table between two induced modules")
    _add_common(p)
    _pair_args(p)
    _add_options(p, "--format", "--cache-dir")
    p.add_argument("--method", choices=(CLOSED_FORM, STRATA, "both"), default=CLOSED_FORM)

    p = sub.add_parser("ext-vi", help="Ext table from a Steinberg-type module "
                                      "into an induced module")
    _add_common(p)
    _pair_args(p)
    _add_options(p, "--format", "--dump-complex")
    p.add_argument("--method", choices=(CLOSED_FORM, COMPLEX_BUILT, "both"),
                   default=CLOSED_FORM)

    p = sub.add_parser("cohomology", help="cohomology tables (quotient, induced "
                                          "or trivial module)")
    _add_common(p)
    _add_options(p, "--format", "--dump-complex")
    p.add_argument("--I", default="", help="comma-separated simple-root indices")
    p.add_argument("--object", choices=("v", "induced", "trivial"), default="v")
    p.add_argument("--method", choices=(CLOSED_FORM, COMPLEX_BUILT, "both"),
                   default=CLOSED_FORM)
    p.add_argument("--center-rank", type=int, default=0)

    p = sub.add_parser("dcosets", help="minimal double-coset representatives with "
                                       "their stratum characters")
    _add_common(p, ring_default=None)
    _pair_args(p)
    _add_options(p, "--format", "--cache-dir")

    p = sub.add_parser("check-ring", help="report the coefficient-ring conditions")
    _add_common(p)
    _add_options(p, "--assume-theta")

    p = sub.add_parser("verify", help="run the verification sweeps for one type and ring")
    _add_common(p)
    _pair_args(p)
    p.add_argument("--all-pairs", action="store_true",
                   help="sweep every pair of subsets instead of a single (I, J)")
    p.add_argument("--strata", choices=("auto", "on", "off"), default="auto",
                   help="include the double-coset strata sweep (auto: rank <= 3)")

    p = sub.add_parser("zelevinsky", help="segment-graph orientation combinatorics "
                                          "and the cuspidal-line Ext table")
    p.add_argument("--k", type=int, required=True, help="number of segment vertices")
    p.add_argument("--I", default=None, help="edge subset (comma-separated indices)")
    p.add_argument("--J", default=None, help="edge subset (comma-separated indices)")
    p.add_argument("--ring", default="Q")
    _add_options(p, "--format")

    return parser


# ---------------------------------------------------------------------------
# subcommands


def _emit_built(args, table_of, query: dict) -> int:
    """Emit ``table_of(method=..., complexes_out=...)``, the table of a
    command with ``--method`` and ``--dump-complex``, with its complexes if
    it dumped any; only JSON prints them, so only JSON asks for them.  The
    built path checks itself against the closed form, so ``both`` builds."""
    dumps: list | None = [] if args.dump_complex and args.format == "json" else None
    table = table_of(method=CLOSED_FORM if args.method == CLOSED_FORM else COMPLEX_BUILT,
                     complexes_out=dumps)
    emit_table(table, args.format, query, args.method, {"complexes": dumps} if dumps else None)
    return EXIT_OK


def cmd_ext(args) -> int:
    from .extengine import ext_steinberg

    rs, spec, I, J = _parse_query(args)
    return _emit_built(args, partial(ext_steinberg, rs, I, J, spec,
                                     center_rank=args.center_rank),
                       _query_dict(rs, spec, I=_subset_list(I), J=_subset_list(J),
                                   center_rank=args.center_rank))


def cmd_ext_induced(args) -> int:
    rs, spec, I, J = _parse_query(args)
    if args.method == CLOSED_FORM:
        from .tables import ext_induced_closed

        table = ext_induced_closed(rs, I, J, spec)
    else:
        from .certificates import ext_induced_via_strata

        table = ext_induced_via_strata(rs, I, J, spec)
    query = _query_dict(rs, spec, I=_subset_list(I), J=_subset_list(J))
    emit_table(table, args.format, query, args.method)
    return EXIT_OK


def cmd_ext_vi(args) -> int:
    from .extengine import ext_v_to_induced

    rs, spec, I, J = _parse_query(args)
    return _emit_built(args, partial(ext_v_to_induced, rs, I, J, spec),
                       _query_dict(rs, spec, I=_subset_list(I), J=_subset_list(J)))


def cmd_cohomology(args) -> int:
    from .tables import check_center_rank, induced_cohomology, trivial_cohomology

    rs, spec, I, _ = _parse_query(args)
    check_center_rank(args.center_rank)  # only the trivial object reads it; check it for all
    query = _query_dict(rs, spec, I=_subset_list(I), object=args.object,
                        center_rank=args.center_rank)
    if args.object == "v":
        from .extengine import cohomology_v

        return _emit_built(args, partial(cohomology_v, rs, I, spec), query)
    # the induced and trivial modules have a closed form only, and dump nothing
    table = (trivial_cohomology(rs, spec, args.center_rank) if args.object == "trivial"
             else induced_cohomology(rs, I, spec))
    emit_table(table, args.format, query, CLOSED_FORM)
    return EXIT_OK


def cmd_dcosets(args) -> int:
    from .weyl import iter_kostant_reps

    rs, spec, I, J = _parse_query(args)
    reps = iter_kostant_reps(rs, I, J)
    if spec is not None:
        from .certificates import vanishing_certificate
    # Each row is encoded as it is made, not by one json.dumps of the whole
    # document, which would hold a string fragment per token at once.
    tsv = args.format == "tsv"
    rows = ["length\tgamma_exp\tdelta_exp\tlevi\tsurviving"] if tsv else []
    for rep in reps:
        entry = {
            "length": rep.length,
            "gamma_exp": list(rep.gamma_exp),
            "delta_exp": list(rep.delta_exp),
            "levi": _subset_list(rep.levi),
            "surviving": rep.w.is_identity and not (J & ~I),
        }
        if spec is not None:
            cert = vanishing_certificate(rs, rep, spec)
            entry["certificate"] = None if cert is None else {
                "beta": cert.beta_index, "exponent": cert.exponent,
                "unit_value": cert.unit_value, "branch": cert.branch,
            }
        if tsv:
            rows.append("{}\t{}\t{}\t{}\t{}".format(
                entry["length"],
                ",".join(map(str, entry["gamma_exp"])),
                ",".join(map(str, entry["delta_exp"])),
                ",".join(map(str, entry["levi"])) or "-",
                int(entry["surviving"])))
        else:
            rows.append(json.dumps(entry, sort_keys=True))
    if tsv:
        sys.stdout.write("\n".join(rows) + "\n")
    else:
        # the bytes of json.dumps({"query": ..., "reps": [...]}, sort_keys=True)
        query = json.dumps(_query_dict(rs, spec, I=_subset_list(I), J=_subset_list(J)),
                           sort_keys=True)
        sys.stdout.write('{"query": ' + query + ', "reps": [' + ", ".join(rows) + "]}\n")
    return EXIT_OK


def cmd_check_ring(args) -> int:
    rs, spec, _, _ = _parse_query(args)
    report = check_ring(rs, spec, theta_assumed=args.assume_theta)
    payload = {"query": _query_dict(rs, spec)}
    payload.update(report.to_json_dict())
    payload["theta_assumed"] = args.assume_theta
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return EXIT_OK


# -- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    """Every check of one pair, or of all pairs, after the pair cap and the
    ring's conditions (:func:`~steinberg_ext.sweep.verify_lines`): its FAIL
    lines, then its PASS lines as they are made, sorted, then their count."""
    rs, spec, I, J = _parse_query(args)
    series, rank = rs.series, rs.rank
    if args.all_pairs and 4 ** rank > MAX_PAIRS:
        raise ResourceLimitError(f"--all-pairs on {series}{rank} would check {4 ** rank} "
                                 f"pairs, over the cap of {MAX_PAIRS}")

    report = check_ring(rs, spec)
    if not report.ok:
        raise RingAssumptionError(
            f"ring {format_ring(spec)} fails the conditions for {series}{rank}: "
            + json.dumps(report.to_json_dict()["witness"], sort_keys=True))

    from .sweep import verify_lines  # only verify compiles it

    strata = args.strata == "on" or (args.strata == "auto" and rank <= 3)
    fails, passes = verify_lines(rs, spec, I, J, all_pairs=args.all_pairs, strata=strata)
    checked, lines = 0, chain(fails, passes)
    while batch := list(islice(lines, 4096)):  # a write per batch, not per 8 KB buffer
        sys.stdout.write("\n".join(batch) + "\n")
        checked += len(batch)
    sys.stdout.write(f"checked {checked} assertions for {series}{rank} over {format_ring(spec)}"
                     f": {checked - len(fails)} passed, {len(fails)} failed\n")
    return EXIT_VERIFY if fails else EXIT_OK


def cmd_zelevinsky(args) -> int:
    from .zelevinsky import (ext_cuspidal_line, orientation_from_permutation,
                             orientation_from_subset, subset_from_orientation)

    k = args.k
    if k < 2:
        raise ConfigurationError("need k >= 2 segment vertices")
    if k - 1 > MAX_EDGES:
        raise ResourceLimitError(f"--k {k} would round-trip 2^{k - 1} edge subsets, "
                                 f"over the cap of 2^{MAX_EDGES}")
    if (args.I is None) != (args.J is None):
        raise ConfigurationError("--I and --J go together: give both for a table, or neither")
    spec = parse_ring(args.ring)
    edges = k - 1

    roundtrip = all(subset_from_orientation(orientation_from_subset(k, I)) == I
                    for I in range(1 << edges))
    surjective = None
    if k <= 6:
        hit = {orientation_from_permutation(k, w).forward for w in permutations(range(k))}
        surjective = hit == set(range(1 << edges))

    payload: dict = {"k": k, "theta_roundtrip_ok": roundtrip,
                     "sk_orientations_surjective": surjective,
                     "ring": format_ring(spec)}
    if args.I is not None:
        I = _parse_subset(args.I, edges)
        J = _parse_subset(args.J, edges)
        table = ext_cuspidal_line(k, I, J, spec)
        if args.format == "tsv":
            query = {"k": k, "I": _subset_list(I), "J": _subset_list(J)}
            emit_table(table, "tsv", query, CLOSED_FORM)
            return EXIT_OK
        payload.update({
            "I": _subset_list(I), "J": _subset_list(J),
            "orientation_I": list(orientation_from_subset(k, I).bits()),
            "orientation_J": list(orientation_from_subset(k, J).bits()),
            "table": table.to_json_dict(),
        })
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return EXIT_OK


_COMMANDS = {
    "ext": cmd_ext,
    "ext-induced": cmd_ext_induced,
    "ext-vi": cmd_ext_vi,
    "cohomology": cmd_cohomology,
    "dcosets": cmd_dcosets,
    "check-ring": cmd_check_ring,
    "verify": cmd_verify,
    "zelevinsky": cmd_zelevinsky,
}


def parse_and_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse prints usage to stderr on its own
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except RingAssumptionError as e:
        print(f"ring-assumption error: {e}", file=sys.stderr)
        return EXIT_RING
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        if e.payload:
            print(json.dumps(e.payload, sort_keys=True), file=sys.stderr)
        return EXIT_VERIFY
    except (ConfigurationError, ResourceLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ContractError as e:
        print(f"internal contract violation: {e}", file=sys.stderr)
        return EXIT_VERIFY


def main() -> None:
    try:
        code = parse_and_dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, which is no mismatch: the exit-time flush
        # goes to devnull, as in the recipe of Python's signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    # the collection at exit then skips every object the run made; unlike
    # os._exit, this keeps atexit handlers and the exit-time flush
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
