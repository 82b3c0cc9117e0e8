"""Command-line front end.

Subcommands: ``mul`` (one product), ``verify`` (randomized + symbolic
checks), ``count`` (instrumented op counts), ``bench`` (wall-clock timing,
CSV), ``emit`` (straight-line program).  Exit codes: 0 success, 1
verification failure, 2 usage error, unparsable operand (an exact token
whose decimal exponent is beyond Python's int-to-text digit limit among
them), out-of-range ``--trials``/``--range``, a float ``mul`` whose product
overflows, or an exact ``mul`` whose product has a coefficient too long to
print (that same limit).

Randomized commands take ``--seed``; when absent, the ``OCTOFAST_SEED``
environment variable is used, else seed 0.  Defaults: 10000 trials, operand
coefficients in [-1000, 1000] (exact mode).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from functools import partial

from . import kernel, verify
from .algebra import Octo, basis_mul, mul_naive
from .kernel import mul_fast
from .opcount import count_algorithm
from .program import emit_csv, emit_text, flatten

DEFAULT_TRIALS = 10000
DEFAULT_RANGE = 1000


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _resolve_seed(value):
    if value is None:
        env = os.environ.get("OCTOFAST_SEED")
        if env is None:
            return 0
        try:
            value = int(env)
        except ValueError:
            raise _CliError(2, f"invalid OCTOFAST_SEED: {env!r}")
    if not 0 <= value < 2 ** 64:
        raise _CliError(2, f"seed out of 64-bit range: {value}")
    return value


def _at_least(value: int, low: int, flag: str) -> None:
    if value < low:
        raise _CliError(2, f"{flag} must be at least {low}, got {value}")


def _parse_octo(text: str, mode: str, what: str) -> Octo:
    try:
        return Octo.from_text(text, mode=mode)
    except (ValueError, ZeroDivisionError) as e:
        raise _CliError(2, f"cannot parse {what} operand: {e}")


def cmd_mul(args) -> int:
    x = _parse_octo(args.x, args.mode, "--x")
    b = _parse_octo(args.b, args.mode, "--b")
    try:
        y = mul_naive(x, b) if args.algo == "naive" else mul_fast(x, b)
    except ValueError as e:  # Octo rejects the inf/nan an overflow leaves
        raise _CliError(2, f"float product overflows: {e}")
    try:
        text = y.to_text()
    except ValueError as e:  # Python's limit on int-to-text digits
        raise _CliError(2, f"product too long to print: {e}")
    print(text)
    return 0


def _random_octo(rng: random.Random, mode: str, r: int) -> Octo:
    if mode == "float":
        return Octo(tuple(rng.uniform(-1.0, 1.0) for _ in range(8)))
    return Octo(tuple(rng.randint(-r, r) for _ in range(8)))


def _basis_failures(p):
    """Counterexamples among the 64 basis products, both kernels against
    the unit table."""
    for i in range(8):
        for j in range(8):
            sign, index = basis_mul(i, j)
            want = Octo.unit(index) if sign > 0 else -Octo.unit(index)
            xi, bj = Octo.unit(i), Octo.unit(j)
            for name, got in (("naive", mul_naive(xi, bj)),
                              ("fast", mul_fast(xi, bj, p))):
                if got != want:
                    yield (f"basis unit({i})*unit({j}) [{name}]: "
                           f"got {got.to_text()}, want {want.to_text()}")


def _random_failures(p, args, seed):
    """Counterexamples among seeded random operands, fast against naive."""
    rng = random.Random(seed)
    for _ in range(args.trials):
        x = _random_octo(rng, args.mode, args.range)
        b = _random_octo(rng, args.mode, args.range)
        ref = mul_naive(x, b)
        got = mul_fast(x, b, p)
        if args.mode == "float":
            ok = all(abs(g - r) <= 1e-12 * (1 + abs(r))
                     for g, r in zip(got.c, ref.c))
        else:
            ok = got == ref
        if not ok:
            yield (f"x={x.to_text()} b={b.to_text()}: "
                   f"fast {got.to_text()} != naive {ref.to_text()}")


def _certification_failures(p):
    """Counterexamples among the 64 entries of the symbolic certification:
    its residuals."""
    for r in verify.certify(p).residuals:
        yield (f"matrix entry ({r.row},{r.col}): "
               f"composed {r.got}, want {r.expected}")


def cmd_verify(args) -> int:
    _at_least(args.trials, 1, "--trials")
    _at_least(args.range, 0, "--range")
    seed = _resolve_seed(args.seed)
    p = kernel.build_pipeline()
    # each suite runs to its first counterexample, which decides its line
    suites = (
        ("basis-products", "64 pairs", _basis_failures(p)),
        ("random-products", f"{args.trials} trials, seed {seed}, {args.mode}",
         _random_failures(p, args, seed)),
        ("symbolic-certification", "64 entries", _certification_failures(p)),
    )
    first = None
    for name, detail, failures in suites:
        counterexample = next(failures, None)
        print(f"{name}: {'PASS' if counterexample is None else 'FAIL'} "
              f"({detail})")
        first = first or counterexample
    if first is None:
        return 0
    print(f"first counterexample: {first}")
    return 1


def cmd_count(args) -> int:
    print(count_algorithm(args.algo))
    return 0


def cmd_bench(args) -> int:
    _at_least(args.trials, 1, "--trials")
    seed = _resolve_seed(args.seed)
    rng = random.Random(seed)
    pairs = [(_random_octo(rng, "float", 0), _random_octo(rng, "float", 0))
             for _ in range(args.trials)]
    p = kernel.default_pipeline()
    print("algo,trials,total_ns,ns_per_mul")
    for name, fn in (("naive", mul_naive),
                     ("fast", partial(mul_fast, pipeline=p))):
        fn(*pairs[0])  # untimed: the first fast product compiles the kernel
        t0 = time.perf_counter_ns()
        for x, b in pairs:
            fn(x, b)
        total = time.perf_counter_ns() - t0
        print(f"{name},{args.trials},{total},{total / args.trials:.1f}")
    return 0


def cmd_emit(args) -> int:
    prog = flatten(kernel.default_pipeline())
    text = emit_text(prog) if args.format == "text" else emit_csv(prog)
    sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="octofast",
        description="Hyperbolic-octonion products: schoolbook and the "
                    "certified 26-multiplication kernel.")
    sub = ap.add_subparsers(dest="command", required=True)

    mul = sub.add_parser("mul", help="multiply two elements")
    mul.add_argument("--x", required=True, help="left operand, 8 comma-separated values")
    mul.add_argument("--b", required=True, help="right operand")
    mul.add_argument("--algo", choices=("naive", "fast"), default="fast")
    mul.add_argument("--mode", choices=("exact", "float"), default="exact")
    mul.set_defaults(fn=cmd_mul)

    ver = sub.add_parser("verify", help="randomized and symbolic checks")
    ver.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--range", type=int, default=DEFAULT_RANGE,
                     help="exact-mode coefficients drawn from [-R, R]")
    ver.add_argument("--mode", choices=("exact", "float"), default="exact")
    ver.set_defaults(fn=cmd_verify)

    cnt = sub.add_parser("count", help="instrumented operation counts")
    cnt.add_argument("--algo", choices=("naive", "fast"), default="fast")
    cnt.set_defaults(fn=cmd_count)

    ben = sub.add_parser("bench", help="wall-clock comparison, CSV output")
    ben.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    ben.add_argument("--seed", type=int, default=None)
    ben.set_defaults(fn=cmd_bench)

    emi = sub.add_parser("emit", help="straight-line program of the fast kernel")
    emi.add_argument("--format", choices=("text", "csv"), default="text")
    emi.set_defaults(fn=cmd_emit)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except _CliError as e:
        print(f"octofast: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
