"""Command-line front end for compiling, verifying and inspecting pulse programs.

Subcommands: ``compile`` (truth table to pulse program), ``verify``
(pulse program against a truth table), ``compare`` (pulse counts across
labeling schemes), ``spectrum`` (equilibrium and final stick spectra)
and ``enumerate`` (count or list optimal chain labelings).

Operations are given as truth-table files or as the built-in names
``fulladder4``, ``swap:i,j`` and ``identity:N``; several compose left to
right.  All output is deterministic: the same configuration and inputs
give byte-identical reports.

Exit codes: 0 success, 2 parse or format error, 4 verification failure.
Every input that parses compiles: routing and placement cannot fail.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from . import labeler, simulator, synthesizer
from .permutation import (
    Permutation,
    TruthTableError,
    builtin_operation,
    compose,
    maximal_sets,
    min_pulse_count,
    count_optimal_labelings,
    parse_truth_table,
)
from .topology import QUADRUPOLAR_CHAIN, SPIN_HALF_HYPERCUBE, Topology, build_topology

__all__ = ["main"]

TOPOLOGY_ALIASES = {
    "chain": QUADRUPOLAR_CHAIN,
    "hypercube": SPIN_HALF_HYPERCUBE,
}

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_VERIFY = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    """An input file's text; a file that is not UTF-8 is refused by name."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CliError(
            "{}: not UTF-8 text ({} at byte {})".format(path, exc.reason, exc.start),
            EXIT_FORMAT,
        ) from None


def _resolve_operations(args: argparse.Namespace) -> tuple[Permutation, str, Topology]:
    """Compose the operation tokens left to right into one permutation.

    Also builds the topology for the inferred qubit count, so a count
    out of range is refused before any operation is built.
    """
    n = args.qubits
    tables: dict[str, Permutation] = {}
    for token in args.operations:
        if os.path.exists(token):
            tables[token] = parse_truth_table(_read_text(token))
            n = n or tables[token].n_qubits
        elif token == "fulladder4":
            n = n or 4
        elif token.startswith("identity:"):
            try:
                n = n or int(token.split(":", 1)[1])
            except ValueError:
                raise CliError("bad qubit count in {!r}".format(token), EXIT_FORMAT) from None
    if n is None:
        raise CliError("qubit count could not be inferred; pass --qubits", EXIT_FORMAT)
    try:
        t = build_topology(args.topology, n)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_FORMAT) from exc

    perms = []
    for token in args.operations:
        if token in tables:
            perms.append(tables[token])
        else:
            try:
                perms.append(builtin_operation(token, n))
            except ValueError as exc:
                raise CliError(str(exc), EXIT_FORMAT) from exc
        if perms[-1].n_qubits != n:
            raise CliError(
                "operation {!r} acts on {} qubits, expected {}".format(
                    token, perms[-1].n_qubits, n
                ),
                EXIT_FORMAT,
            )
    combined = perms[0]
    for extra in perms[1:]:
        combined = compose(combined, extra)
    return combined, "+".join(args.operations), t


def _default_labeling(args: argparse.Namespace) -> str:
    return args.labeling or synthesizer.SCHEMES[args.topology][0]


def _check_scheme(args: argparse.Namespace, name: str) -> None:
    allowed = synthesizer.SCHEMES[args.topology]
    if name not in allowed:
        raise CliError(
            "labeling {!r} is not valid for {} (choose from {})".format(
                name, args.topology, ", ".join(allowed)
            ),
            EXIT_FORMAT,
        )


def _write_outputs(args: argparse.Namespace, files: dict[str, str]) -> None:
    if args.output is None:
        return
    os.makedirs(args.output, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(args.output, name), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_compile(args: argparse.Namespace) -> int:
    p, op_name, t = _resolve_operations(args)
    name = _default_labeling(args)
    _check_scheme(args, name)
    d = maximal_sets(p)
    scheme, seq = synthesizer.synthesize_named(name, p, d, t)
    scheduled = synthesizer.schedule_rounds(seq)
    table = labeler.serialize_labeling(scheme.labeling, t)
    program = synthesizer.serialize_pulse_program(scheduled)
    report = "\n".join(
        [
            "command: compile",
            "operation: {}".format(op_name),
            "topology: {}".format(args.topology),
            "labeling: {}".format(name),
            "qubits: {}".format(p.n_qubits),
            "sets: {}".format(len(d.sets)),
            "minimum-pulses: {}".format(min_pulse_count(d)),
            "pulses: {}".format(len(scheduled)),
            "rounds: {}".format(len(scheduled.rounds)),
        ]
    )
    _write_outputs(
        args,
        {"report.txt": report, "labeling.txt": table, "program.txt": program},
    )
    print(report)
    print()
    print("labeling-table:")
    print(table)
    print()
    print("pulse-program:")
    print(program if program else "(empty)")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    p, op_name, t = _resolve_operations(args)
    try:
        labeling = labeler.parse_labeling(_read_text(args.labeling_table), t)
        seq = synthesizer.parse_pulse_program(_read_text(args.program), t, labeling)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc), EXIT_FORMAT) from exc
    verdict = simulator.verify_permutation(seq, p)
    lines = [
        "command: verify",
        "operation: {}".format(op_name),
        "verdict: {}".format("PASS" if verdict.passed else "FAIL"),
        "realized: {}".format(" ".join(str(x) for x in verdict.realized)),
        "phases: {}".format(" ".join("{:+d}".format(ph) for ph in verdict.phases)),
    ]
    for problem in verdict.problems:
        lines.append("problem: {}".format(problem))
    print("\n".join(lines))
    return EXIT_OK if verdict.passed else EXIT_VERIFY


def cmd_compare(args: argparse.Namespace) -> int:
    p, op_name, t = _resolve_operations(args)
    report = synthesizer.pulse_count_report(p, t)
    lines = [
        "command: compare",
        "operation: {}".format(op_name),
        "topology: {}".format(args.topology),
        "qubits: {}".format(p.n_qubits),
        "scheme  pulses  rounds",
    ]
    for name in report.counts:
        lines.append(
            "{}  {}  {}".format(name, report.counts[name], report.rounds[name])
        )
    for note in report.notes:
        lines.append("note: {}".format(note))
    print("\n".join(lines))
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    p, op_name, t = _resolve_operations(args)
    name = _default_labeling(args)
    _check_scheme(args, name)
    scheme = synthesizer.scheme_for(name, maximal_sets(p), t)
    eq = simulator.equilibrium_populations(t)
    fin = simulator.final_populations(eq, p, scheme.labeling)
    parts = [
        "command: spectrum",
        "operation: {}".format(op_name),
        "topology: {}".format(args.topology),
        "labeling: {}".format(name),
        "qubits: {}".format(p.n_qubits),
        "",
        "equilibrium:",
        simulator.serialize_spectrum(
            simulator.stick_spectrum(eq, t), args.ascii_bars
        ),
        "",
        "final:",
        simulator.serialize_spectrum(
            simulator.stick_spectrum(fin, t), args.ascii_bars
        ),
    ]
    print("\n".join(parts))
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    p, op_name, t = _resolve_operations(args)
    if args.topology != QUADRUPOLAR_CHAIN:
        raise CliError("enumeration applies to the quadrupolar chain", EXIT_FORMAT)
    d = maximal_sets(p)
    family = count_optimal_labelings(d)
    lines = [
        "command: enumerate",
        "operation: {}".format(op_name),
        "qubits: {}".format(p.n_qubits),
        "formula-count: {}".format(family),
        # counted in closed form; only the shown schemes are built
        "enumerated: {}".format(min(family, args.limit or family)),
    ]
    schemes = labeler.enumerate_ols_quadrupolar(d, t, args.limit)
    for k, scheme in enumerate(itertools.islice(schemes, args.show), 1):
        labels = " ".join(scheme.labeling.label_bits(lv) for lv in range(t.level_count))
        lines.append("scheme {}: {}".format(k, labels))
    print("\n".join(lines))
    return EXIT_OK


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError("must be at least {}".format(minimum))
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelpulse",
        description="Compile reversible truth tables to transition-selective pulse sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, run, labeling=False):
        sp.set_defaults(run=run)
        sp.add_argument("operations", nargs="+", metavar="OPERATION",
                        help="truth-table file, fulladder4, swap:i,j or identity:N")
        sp.add_argument("--topology", choices=sorted(TOPOLOGY_ALIASES), default="chain")
        sp.add_argument("--qubits", type=int, default=None)
        if labeling:
            sp.add_argument(
                "--labeling",
                choices=sorted({s for names in synthesizer.SCHEMES.values() for s in names}),
                default=None,
                help="defaults to ols on the chain, pairswap on the hypercube",
            )

    sp = sub.add_parser("compile", help="emit a pulse program and labeling table")
    common(sp, cmd_compile, labeling=True)
    sp.add_argument("--output", default=None, metavar="DIR",
                    help="also write report.txt, labeling.txt and program.txt here")

    sp = sub.add_parser("verify", help="check a pulse program against a truth table")
    common(sp, cmd_verify)
    sp.add_argument("--program", required=True)
    sp.add_argument("--labeling-table", required=True, dest="labeling_table")

    sp = sub.add_parser("compare", help="pulse counts across labeling schemes")
    common(sp, cmd_compare)

    sp = sub.add_parser("spectrum", help="equilibrium and final stick spectra")
    common(sp, cmd_spectrum, labeling=True)
    sp.add_argument("--ascii", action="store_true", dest="ascii_bars")

    sp = sub.add_parser("enumerate", help="count or list optimal chain labelings")
    common(sp, cmd_enumerate)
    sp.add_argument("--limit", type=_at_least(1), default=None)
    sp.add_argument("--show", type=_at_least(0), default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    args.topology = TOPOLOGY_ALIASES[args.topology]
    try:
        return args.run(args)
    except CliError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return exc.code
    except TruthTableError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
