"""Command-line front end: scenario parameters in, tables and figure CSVs out.

Every command writes deterministic output for a given (command, config, seed);
CSV files start with a comment line echoing the seed and the command. The
package returns results as values and arrays, and only this module formats
them. A flat key=value config file can preload any flag, read as the flag
parses; explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .model import (
    Action,
    AttackKind,
    GameConfig,
    InvalidPowers,
    PoolGameError,
    check_count,
    check_powers,
    check_seed,
    check_weight,
)
from .payoff import payoff_pair
from .ars import retaliate
from .equilibrium import audit_ipbwh_nonempty, delta_bound, stage_nash
from .engine import (
    DEFAULT_K_NEAR_ONE,
    ArsAgent,
    OptimalOneShotAttacker,
    PairwiseActionMatrix,
    closed_pool_scenario,
    npool_stage_payoffs_mc,
    run_npool,
    two_stage_ratio_sweep,
    two_stage_sweep,
)
from .detection import (
    DetectionScenario,
    detect_bwh_block_ratio,
    detect_unlucky_miners,
    geometric_param,
    ingest_hashrate_csv,
    load_bundled_hashrates,
    simulate_reward_density,
    variance_ratio,
)

TABLE1_POOLS = {"antpool": 0.15, "viabtc": 0.10, "dpool": 0.035, "bixin": 0.02}
TABLE1_ATTACKER = 0.25
#: most ``--cells`` per axis: a sweep or audit holds arrays of cells**2 entries
MAX_GRID_CELLS = 500
# a ``%.Nf`` cell is written from np.rint(|x|·10**N) only when the scaled
# value lies more than this many spacings from a rounding tie
_TIE_SPACINGS = 4.0


def _parse_config_file(path) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise PoolGameError(f"cannot read config file: {exc}") from None
    values = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PoolGameError(f"config line without '=': {raw.strip()!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _config_value(key: str, val: str, flag: argparse.Action):
    """Typed value of a config entry, read as its ``flag`` parses: with its
    type, its choices and, for a multi-number entry (e.g. ``own_prev = 0
    0.02``), its number of values. ``powers`` is in percent."""
    try:
        if key == "powers":
            return [float(v) / 100.0 for v in val.replace(",", " ").split()]
        read = flag.type or str
        if isinstance(flag.nargs, int):
            values = [read(v) for v in val.replace(",", " ").split()]
            if len(values) != flag.nargs:
                raise PoolGameError(
                    f"config key {key!r}: needs {flag.nargs} numbers, got {val!r}"
                )
            return values
        value = read(val)
        if flag.choices is not None and value not in flag.choices:
            raise ValueError(val)
        return value
    except ValueError:
        raise PoolGameError(f"config key {key!r}: cannot read {val!r}") from None


def _action(pair) -> Action:
    return Action(float(pair[0]), float(pair[1]))


def _emit(lines, out_path, seed, command):
    header = f"# seed={seed} command={command}"
    text = "\n".join([header, *lines]) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_k(p):
    p.add_argument("--k", type=float, default=DEFAULT_K_NEAR_ONE,
                   help="retaliation preference weight")


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--config", default=None, help="flat key=value config file")


def build_parser(defaults: dict[str, dict] | None = None) -> argparse.ArgumentParser:
    """The ``poolgame`` parser; ``defaults`` maps a command to flag defaults
    that replace the built-in ones (config file values)."""
    ap = argparse.ArgumentParser(
        prog="poolgame",
        description="Mining-pool FAW/BWH game: payoffs, retaliation, detection.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    attacks = [kind.value for kind in AttackKind]

    p = sub.add_parser("payoff", help="stage payoffs for an action profile")
    p.add_argument("--alpha", type=float, nargs=2, required=True)
    p.add_argument("--a1", type=float, nargs=2, metavar=("FAW", "BWH"), required=True)
    p.add_argument("--a2", type=float, nargs=2, metavar=("FAW", "BWH"), required=True)
    _add_common(p)

    p = sub.add_parser("stage-nash", help="stage-game Nash equilibrium")
    p.add_argument("--alpha", type=float, nargs=2, required=True)
    _add_common(p)

    p = sub.add_parser("retaliate", help="retaliation against an observed deviation")
    p.add_argument("--alpha", type=float, nargs=2, metavar=("OWN", "OPP"), required=True)
    p.add_argument("--opp-attack", type=float, nargs=2, metavar=("FAW", "BWH"), required=True)
    p.add_argument("--own-prev", type=float, nargs=2, default=(0.0, 0.0))
    p.add_argument("--opp-prescribed", type=float, nargs=2, default=(0.0, 0.0))
    _add_k(p)
    _add_common(p)

    p = sub.add_parser("simulate", help="Monte-Carlo round-level payoff estimate")
    p.add_argument("--alpha", type=float, nargs=2, required=True)
    p.add_argument("--a1", type=float, nargs=2, required=True)
    p.add_argument("--a2", type=float, nargs=2, required=True)
    p.add_argument("--rounds", type=int, default=1_000_000)
    _add_common(p)

    p = sub.add_parser("sweep", help="two-stage deviation/retaliation heatmap data")
    p.add_argument("--attack", choices=attacks, required=True)
    p.add_argument("--cells", type=int, default=60, help="power grid cells per axis")
    p.add_argument("--fixed-alpha1", type=float, default=None,
                   help="sweep attack ratio at this attacker size instead of sizes")
    _add_k(p)
    _add_common(p)

    p = sub.add_parser("npool", help="n-pool one-shot attack and retaliation")
    p.add_argument("--powers", type=float, nargs="+", default=None,
                   help="pool powers as fractions, attacker first "
                        "(or `powers` config key, in percent)")
    p.add_argument("--attack", choices=attacks, required=True)
    p.add_argument("--stages", type=int, default=2)
    p.add_argument("--rounds", type=int, default=0,
                   help="Monte-Carlo rounds per stage payoff (0 = exact)")
    _add_k(p)
    _add_common(p)

    p = sub.add_parser("detect", help="detection and identification quantities")
    p.add_argument("--mode", choices=["block-ratio", "unlucky", "variance", "geometric"],
                   required=True)
    p.add_argument("--alpha", type=float, default=0.10, help="attacker pool size")
    p.add_argument("--beta", type=float, default=0.20, help="victim pool size")
    p.add_argument("--infiltration", type=float, default=0.005)
    p.add_argument("--attack", choices=attacks, default="faw")
    p.add_argument("--blocks", type=int, default=2000)
    p.add_argument("--periods", type=int, default=720)
    p.add_argument("--hashrates", default=None, help="hash-rate CSV (default: bundled fixture)")
    p.add_argument("--pool", default=None, help="pool column of the hash-rate CSV")
    p.add_argument("--series-out", default=None,
                   help="also write the simulated attack reward-density series CSV")
    _add_common(p)

    p = sub.add_parser("delta-bound", help="discount factor above which retaliation deters")
    p.add_argument("--alpha", type=float, nargs=2, required=True)
    _add_k(p)
    _add_common(p)

    p = sub.add_parser("audit-ipbwh", help="non-emptiness audit of the BWH candidate set")
    p.add_argument("--cells", type=int, default=30, help="power grid cells per axis")
    _add_common(p)

    p = sub.add_parser("reproduce-table", help="reproduce a published results table")
    p.add_argument("table", type=int, choices=[1, 3])
    p.add_argument("--rounds", type=int, default=0,
                   help="table 3 Monte-Carlo rounds per stage (0 = exact)")
    _add_k(p)
    _add_common(p)

    p = sub.add_parser("closed-pools", help="unretaliated closed-pool attack scenario")
    _add_common(p)

    for command, values in (defaults or {}).items():
        sub.choices[command].set_defaults(**values)
    return ap


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The built-in parser, built once per process; parsing leaves it as it is."""
    return build_parser()


def _config_options(parser, command: str) -> dict[str, argparse.Action]:
    """The command's option flags by config key; positionals are not keys."""
    commands = next(a for a in parser._actions if a.dest == "command")
    return {a.dest: a for a in commands.choices[command]._actions
            if a.option_strings and a.dest not in ("help", "config")}


def _apply_config(parser, args, argv):
    if not args.config:
        return args
    file_values = _parse_config_file(args.config)
    flags = _config_options(parser, args.command)
    values = {}
    for key, val in file_values.items():
        if key not in flags:
            raise PoolGameError(
                f"unknown config key {key!r} for {args.command}; "
                f"valid keys: {', '.join(sorted(flags))}"
            )
        values[key] = _config_value(key, val, flags[key])
    # parse again with the file values as the command's defaults, so any
    # flag on the command line wins, even one equal to its built-in default
    return build_parser({args.command: values}).parse_args(argv)


def _digits(r, negative, places):
    """Decimal digits of the non-negative integers ``r`` (int64), with a '.'
    before the last ``places`` digits when ``places`` > 0 and a '-' where
    ``negative`` holds, as a (characters, rows) uint8 block of one column's
    cells: 0 marks a place with no character, so the integer part has no
    leading zeros but at least one digit."""
    width = max(len(str(int(r.max(initial=0)))), places + 1)
    point = int(places > 0)
    last = width + point  # the block's last place, the lowest digit
    block = np.empty((last + 1, r.size), np.uint8)
    block[0] = np.where(negative, ord("-"), 0)
    if point:
        block[last - places] = ord(".")
    q = r
    for k in range(width):
        d = q + ord("0")
        q = q // 10  # numpy's divmod is about twice as slow here
        d -= 10 * q
        if k > places:
            d[r < 10**k] = 0  # a leading zero
        block[last - k - (point and k >= places)] = d
    return block


def _fixed_point(x, places):
    """The ``%.{places}f`` block of the floats ``x`` (as ``_digits``) and
    the mask of the cells it writes as ``%`` does.

    ``%`` rounds the exact value |x|·10**places half to even. The product
    s = fl(|x|·10**places) lies within one spacing of that value, so
    ``np.rint(s)`` is its rounding wherever s lies more than
    ``_TIE_SPACINGS`` spacings from a half-integer; the mask holds there,
    on finite cells below 2**52 / 10**places."""
    a = np.abs(x)
    fits = a < 2.0**52 / 10.0**places  # false for NaN and inf
    s = np.where(fits, a, 0.0) * 10.0**places
    r = np.rint(s)
    certified = fits & (0.5 - np.abs(s - r) > _TIE_SPACINGS * np.spacing(s))
    return _digits(r.astype(np.int64), np.signbit(x), places), certified


def _csv_rows(fmt, columns) -> list[str]:
    """``[fmt % cells for cells in zip(*columns)]``, written a column at a
    time.

    ``fmt`` is a row of comma-separated ``%.Nf``, ``%d`` and ``%s``
    fields, and ``columns`` holds one column per field: floats, integers
    (or bools) and strings. Every cell's characters go into one
    (characters, rows) byte matrix that is read out row by row. A row with
    a cell ``_fixed_point`` does not certify, a negative ``%d`` cell or a
    non-empty ``%s`` cell is formatted by ``fmt`` itself."""
    rows = len(columns[0])
    blocks, redo = [], np.zeros(rows, bool)
    for spec, col in zip(fmt.split(","), columns):
        if blocks:
            blocks.append(np.full((1, rows), ord(","), np.uint8))
        if spec == "%s":
            redo |= np.fromiter(map(bool, col), bool, rows)  # written empty
        elif spec == "%d":
            v = np.asarray(col, np.int64)
            redo |= v < 0
            blocks.append(_digits(v, False, 0))
        else:
            block, certified = _fixed_point(np.asarray(col, float), int(spec[2:-1]))
            redo |= ~certified
            blocks.append(block)
    blocks.append(np.full((1, rows), ord("\n"), np.uint8))
    chars = np.concatenate(blocks).T
    lines = chars[chars != 0].tobytes().decode().split("\n")[:-1]
    for i in np.flatnonzero(redo).tolist():
        lines[i] = fmt % tuple(col[i] for col in columns)
    return lines


def _cmd_payoff(args):
    u = payoff_pair(*args.alpha, _action(args.a1), _action(args.a2))
    return ["u1,u2", f"{u.u_i:.10f},{u.u_j:.10f}"]


def _cmd_stage_nash(args):
    eq = stage_nash(*args.alpha)
    (a1, a2), u = eq.actions, eq.payoffs
    return [
        "f1,f2,u1,u2,iterations,converged",
        f"{a1.faw:.8f},{a2.faw:.8f},{u.u_i:.8f},{u.u_j:.8f},{eq.iterations},{int(eq.converged)}",
    ]


def _cmd_retaliate(args):
    r = retaliate(
        args.alpha[0], _action(args.own_prev), args.alpha[1],
        _action(args.opp_attack), _action(args.opp_prescribed),
        check_weight(args.k, "--k"),
    )
    return ["faw,bwh,ratio_faw,ratio_bwh",
            f"{r.faw:.8f},{r.bwh:.8f},{r.faw/args.alpha[0]:.6f},{r.bwh/args.alpha[0]:.6f}"]


def _cmd_simulate(args):
    (f1, b1), (f2, b2) = args.a1, args.a2
    matrix = PairwiseActionMatrix(np.array([[0.0, f1], [f2, 0.0]]),
                                  np.array([[0.0, b1], [b2, 0.0]]))
    (u1, u2), (se1, se2) = npool_stage_payoffs_mc(args.alpha, matrix, args.rounds, args.seed)
    return ["u1,u2,stderr1,stderr2,rounds",
            f"{u1:.8f},{u2:.8f},{se1:.2e},{se2:.2e},{args.rounds}"]


def _pool_powers(flags, *powers):
    """``check_powers`` on the powers of ``flags``, named in its message."""
    try:
        check_powers(*powers)
    except InvalidPowers as exc:
        raise InvalidPowers(f"{flags}: {exc}") from None


def _grid_cells(n):
    """``--cells``, checked: a power grid needs at least one cell per axis and
    allows at most MAX_GRID_CELLS, refused before any grid is allocated."""
    if check_count(n, "--cells") > MAX_GRID_CELLS:
        raise PoolGameError(
            f"the power grid allows at most {MAX_GRID_CELLS} cells per axis, got {n}")
    return n


def _infiltration_share(args):
    """``detect --infiltration`` as a share of ``--alpha``, checked before the
    division: a pool infiltrates with less than its own power. With all of
    it, the pool keeps no home power, so no period ends."""
    # written so that NaN fails the test
    if not 0.0 <= args.infiltration < args.alpha:
        raise PoolGameError(
            f"--infiltration must be in [0, --alpha={args.alpha}), got {args.infiltration}")
    return args.infiltration / args.alpha


def _cmd_sweep(args):
    kind = AttackKind(args.attack)
    n = _grid_cells(args.cells)
    k = check_weight(args.k, "--k")
    grid = np.linspace(0.01, 0.5, n)
    if args.fixed_alpha1 is not None:
        _pool_powers("--fixed-alpha1", args.fixed_alpha1)
        ratios = np.linspace(1.0 / n, 1.0, n)
        table = two_stage_ratio_sweep(ratios, grid, kind, args.fixed_alpha1, k)
    else:
        table = two_stage_sweep(grid, kind, k)
    return _sweep_rows(table)


def _sweep_rows(t):
    """CSV lines of a sweep's columns: the header, then one row per cell."""
    columns = (t.alpha_1, t.alpha_2, t.attack_ratio, t.r2_faw, t.r2_bwh, t.u1_avg, t.u2_avg,
               t.ip_faw_empty, t.error)
    return ["alpha1,alpha2,attack_ratio,r2F,r2B,u1_avg,u2_avg,ip_faw_empty,error",
            *_csv_rows("%.6f,%.6f,%.6f,%.6f,%.6f,%.8f,%.8f,%d,%s", columns)]


def _one_shot_strategies(kind, k, n):
    """Pool 0 attacks every other pool once at stage 0; all pools play ARS."""
    return [OptimalOneShotAttacker(kind, k=k)] + [ArsAgent(k=k) for _ in range(n - 1)]


def _cmd_npool(args):
    kind = AttackKind(args.attack)
    if not args.powers:
        raise PoolGameError("npool needs --powers or a `powers` config entry")
    config = GameConfig(tuple(args.powers), seed=args.seed)
    strategies = _one_shot_strategies(kind, check_weight(args.k, "--k"), len(args.powers))
    hist = run_npool(config, strategies, args.stages,
                     payoff_rounds=args.rounds or None)
    lines = ["stage,pool,payoff"]
    for rec in hist.records:
        for i, u in enumerate(rec.payoffs):
            lines.append(f"{rec.stage},{i},{u:.8f}")
    totals = [sum(r.payoffs[i] for r in hist.records) for i in range(len(args.powers))]
    lines.append("# totals: " + ",".join(f"{t:.8f}" for t in totals))
    return lines


def _cmd_detect(args):
    # every mode describes the same two pools and the first one's
    # infiltration, so every mode checks them
    _pool_powers("--alpha and --beta", args.alpha, args.beta)
    share = _infiltration_share(args)
    kind = AttackKind(args.attack)
    if args.mode == "block-ratio":
        expected, p = detect_bwh_block_ratio(args.beta, args.infiltration, args.blocks)
        return ["expected_fraction,p_value_no_attack", f"{expected:.8f},{p:.8f}"]
    if args.mode == "unlucky":
        prob = detect_unlucky_miners(args.infiltration, args.blocks)
        return ["probability_no_fpow", f"{prob:.8e}"]
    if args.mode == "geometric":
        p = geometric_param(args.alpha, args.beta, share, kind)
        return ["geometric_p", f"{p:.8f}"]
    series = (ingest_hashrate_csv(args.hashrates) if args.hashrates
              else load_bundled_hashrates())
    pool = args.pool or series.pools()[0]
    scenario = DetectionScenario(args.alpha, args.beta, share, kind,
                                 periods=args.periods, seed=args.seed)
    attack = simulate_reward_density(scenario, series, pool=pool)
    honest = simulate_reward_density(
        DetectionScenario(args.alpha, args.beta, 0.0, kind,
                          periods=args.periods, seed=args.seed),
        series, pool=pool,
    )
    ratio = variance_ratio(attack, honest)
    if honest.variance() == 0.0:
        raise PoolGameError("the honest series is flat, so there is no variance ratio")
    if args.series_out:
        samples = attack.samples
        _emit(["period_index,reward_density",
               *_csv_rows("%d,%.8f", (np.arange(samples.size), samples))],
              args.series_out, args.seed, "detect-series")
    return ["variance_ratio,attack_var,honest_var",
            f"{ratio:.4f},{attack.variance():.6f},{honest.variance():.6f}"]


def _cmd_delta_bound(args):
    b = delta_bound(*args.alpha, check_weight(args.k, "--k"))
    # a class whose sampled deviations all go unpunished (punishment below
    # OPTIMIZER_TOL) has no ratio: its maximum is -inf
    if b.bound == -np.inf:
        raise PoolGameError("no sampled deviation is punished measurably, so there is no bound")
    lines = ["alpha1,alpha2,k,bound", f"{b.alpha_1},{b.alpha_2},{b.k},{b.bound:.8f}"]
    lines += [f"# {name}: {v:.8f}" if v > -np.inf else f"# {name}: none"
              for name, v in sorted(b.case_maxima.items())]
    return lines


def _cmd_audit(args):
    report = audit_ipbwh_nonempty(_grid_cells(args.cells))
    return [*_audit_rows(report), f"# failures: {np.count_nonzero(~report.passed)}"]


def _audit_rows(r):
    """CSV lines of the audit's columns: the header, then one row per cell."""
    columns = (r.alpha_1, r.alpha_2, r.f_value, r.k_chosen, r.passed)
    return ["alpha1,alpha2,f_value,k_chosen,passed",
            *_csv_rows("%.6f,%.6f,%.8f,%.8f,%d", columns)]


def _cmd_reproduce_table(args):
    k = check_weight(args.k, "--k")
    if args.table == 1:
        lines = ["victim,power,attack,r_faw_pct,r_bwh_pct,attacker_total_pct"]
        for name, power in TABLE1_POOLS.items():
            for kind in (AttackKind.FAW, AttackKind.BWH):
                config = GameConfig((TABLE1_ATTACKER, power), seed=args.seed)
                hist = run_npool(config, _one_shot_strategies(kind, k, 2), 2)
                r = hist.records[1].actions.action(1, 0)
                total = sum(rec.payoffs[0] for rec in hist.records)
                lines.append(
                    f"{name},{power},{kind.value},{100*r.faw/power:.4f},"
                    f"{100*r.bwh/power:.4f},{100*total:.4f}"
                )
        return lines
    # table 3
    powers = (TABLE1_ATTACKER, *TABLE1_POOLS.values())
    lines = ["attack,pool,power,attack_ratio_pct,r_faw_pct,r_bwh_pct,attacker_total_pct"]
    for kind in (AttackKind.FAW, AttackKind.BWH):
        config = GameConfig(powers, seed=args.seed)
        hist = run_npool(config, _one_shot_strategies(kind, k, len(powers)), 2,
                         payoff_rounds=args.rounds or None)
        matrix0 = hist.records[0].actions
        matrix1 = hist.records[1].actions
        total = sum(r.payoffs[0] for r in hist.records)
        for j, name in enumerate(TABLE1_POOLS, start=1):
            atk = matrix0.action(0, j)
            ret = matrix1.action(j, 0)
            lines.append(
                f"{kind.value},{name},{powers[j]},{100*atk.power/powers[0]:.4f},"
                f"{100*ret.faw/powers[j]:.4f},{100*ret.bwh/powers[j]:.4f},{100*total:.4f}"
            )
    return lines


def _cmd_closed_pools(args):
    lines = ["attacker_power,infiltration,attacker_gain_pct,victim_loss_pct"]
    for row in closed_pool_scenario():
        lines.append(
            f"{row.attacker_power},{row.infiltration:.6f},"
            f"{100*row.attacker_gain:.4f},{100*row.victim_loss:.4f}"
        )
    return lines


_HANDLERS = {
    "payoff": _cmd_payoff,
    "stage-nash": _cmd_stage_nash,
    "retaliate": _cmd_retaliate,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "npool": _cmd_npool,
    "detect": _cmd_detect,
    "delta-bound": _cmd_delta_bound,
    "audit-ipbwh": _cmd_audit,
    "reproduce-table": _cmd_reproduce_table,
    "closed-pools": _cmd_closed_pools,
}


def main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args = _apply_config(parser, args, argv)
        check_seed(args.seed, "--seed")
        lines = _HANDLERS[args.command](args)
    except PoolGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(lines, args.out, args.seed, args.command)
    return 0


if __name__ == "__main__":
    sys.exit(main())
