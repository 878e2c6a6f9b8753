"""Command-line surface: ingest, simulate, fit, predict, evaluate, and run
the closed power-control loop.

All outputs are deterministic for fixed flags and seed. Exit codes: 0 on
success, 1 on validation errors, 2 on I/O errors. Every subcommand accepts
``--config FILE`` pointing at a flat ``key = value`` text file whose keys
mirror the long flag names; explicit flags win over config values.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import linksim, predictor
from .atpc import CONTROLLER_METHODS, AtpcConfig, run_closed_loop
from .evaluate import evaluate as evaluate_trace
from .stats import sample_acf
from .trace import export_csv, ingest_csv


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the toolkit reserves 2 for
    # I/O errors, so route usage problems through the validation path.
    def error(self, message):
        raise ValueError(message)


def _config_flags(path: str, command: str) -> list[str]:
    """A flat ``key = value`` file read as the flags it mirrors, each line
    as ``--key=value``."""
    flag_of = {o.name: o.flag for o in _COMMANDS[command][2]}
    flags = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        name = key.strip().replace("-", "_")
        if name not in flag_of:
            raise ValueError(f"unknown config key {name!r}")
        flags.append(f"{flag_of[name]}={val.strip()}")
    return flags


def _parse_loss(spec: str | None, seed: int) -> linksim.LossModel | None:
    """Loss flag syntax: ``bernoulli:P`` or ``gilbert:PGB,PBG,LG,LB``."""
    if spec in (None, "", "none"):
        return None
    kind, _, rest = spec.partition(":")
    try:
        if kind == "bernoulli":
            return linksim.bernoulli_loss(float(rest), seed=seed)
        if kind in ("gilbert", "gilbert_elliott"):
            parts = [float(x) for x in rest.split(",")]
            if len(parts) != 4:
                raise ValueError("expected 4 comma-separated probabilities")
            return linksim.gilbert_elliott_loss(*parts, seed=seed)
    except ValueError as exc:
        raise ValueError(f"bad loss spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad loss spec {spec!r}: unknown kind {kind!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"bad lag list {text!r}") from exc


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when it is unset."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_acf(opts: dict) -> int:
    tr = ingest_csv(opts["in"], opts["interval"])
    est = sample_acf(tr, opts["max_lag"])
    lines = ["lag_s,acov,acf_norm,n_pairs,d1"]
    for i in range(len(est.lags)):
        lines.append(
            f"{est.lag_seconds[i]:.6f},{est.values[i]:.9f},"
            f"{est.normalized[i]:.9f},{est.n_pairs[i]},{est.d1[i]:.9f}"
        )
    _emit("\n".join(lines) + "\n", opts["out"])
    return 0


def _link(opts: dict) -> tuple[linksim.RadioProfile, linksim.ChannelModel,
                               linksim.LossModel | None]:
    """Radio, channel and loss model; the loss seed is the channel's + 1."""
    radio = linksim.profile_by_name(opts["radio"])
    channel = linksim.channel_by_name(
        opts["channel"], seed=opts["seed"], base_path_loss_db=opts["path_loss"]
    )
    return radio, channel, _parse_loss(opts["loss"], seed=opts["seed"] + 1)


def _cmd_simulate(opts: dict) -> int:
    radio, channel, loss = _link(opts)
    tx = radio.max_tx_dbm if opts["tx_power"] is None else opts["tx_power"]
    tr = linksim.generate_trace(channel, radio, tx, opts["packets"])
    if loss is not None:
        tr = linksim.apply_loss(tr, loss)
    export_csv(tr, opts["out"])
    return 0


def _cmd_fit(opts: dict) -> int:
    tr = ingest_csv(opts["in"], opts["interval"])
    model = predictor.fit_at_lag(tr, opts["method"], opts["lag"])
    _emit(predictor.model_to_json(model), opts["out"])
    return 0


def _cmd_predict(opts: dict) -> int:
    model = predictor.model_from_json(Path(opts["model"]).read_text(encoding="utf-8"))
    pred = predictor.predict(model, opts["anchor_rssi"], opts["anchor_slope"])
    out = {
        "value_dbm": round(pred.value, 6),
        "mse_db2": round(pred.mse, 6) if pred.mse is not None else None,
        "steps_ahead": pred.steps_ahead,
        "method": model.method,
    }
    sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_evaluate(opts: dict) -> int:
    tr = ingest_csv(opts["in"], opts["interval"])
    report = evaluate_trace(tr, opts["method"], _int_list(opts["lags"]))
    base = Path(opts["out"])
    report.write_csv(base.with_suffix(".csv"))
    report.write_json(base.with_suffix(".json"))
    return 0


def _cmd_atpc(opts: dict) -> int:
    radio, channel, loss = _link(opts)
    config = AtpcConfig(
        radio=radio,
        threshold_dbm=opts["threshold"],
        margin_db=opts["margin"],
        max_missed_acks=opts["max_missed"],
        predictor_method=opts["method"],
    )
    result = run_closed_loop(channel, config, opts["packets"], loss=loss)
    _emit(result.to_csv_text(), opts["out"])
    return 0


@dataclass(frozen=True)
class _Opt:
    """One option of a subcommand: flag ``--name`` (dashes for underscores)
    and config key ``name``."""

    name: str
    type: Callable[[str], object] = str
    default: object = None
    choices: tuple | None = None
    required: bool = False
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


_IN = _Opt("in", required=True)
_INTERVAL = _Opt("interval", float,
                 help="nominal packet interval, s; needed only for a trace without t_s, "
                      "and otherwise within 1 us of its t_s step")
_CHANNEL = _Opt("channel", str, "swell", linksim.CHANNEL_KINDS)
_RADIO = _Opt("radio", str, "cc2538", tuple(p.name for p in linksim.builtin_profiles()))
_PACKETS = _Opt("packets", int, 2000)
_SEED = _Opt("seed", int, 0)
_PATH_LOSS = _Opt("path_loss", float, 60.0)
_METHOD = _Opt("method", str, predictor.METHOD_ORTHONORMAL, predictor.METHODS)

# subcommand -> (handler, help, option rows in --help order)
_COMMANDS = {
    "acf": (_cmd_acf, "sample autocorrelation of a trace CSV", (
        _IN,
        _INTERVAL,
        _Opt("max_lag", int, 25),
        _Opt("out"),
    )),
    "simulate": (_cmd_simulate, "generate a synthetic trace CSV", (
        _CHANNEL, _RADIO, _PACKETS, _SEED,
        _Opt("loss", help="bernoulli:P or gilbert:PGB,PBG,LG,LB"),
        _Opt("tx_power", float),
        _PATH_LOSS,
        _Opt("out", required=True),
    )),
    "fit": (_cmd_fit, "fit a predictor and dump it as JSON", (
        _IN,
        _INTERVAL,
        _METHOD,
        _Opt("lag", int, 1),
        _Opt("out"),
    )),
    "predict": (_cmd_predict, "apply a dumped model to an anchor", (
        _Opt("model", required=True),
        _Opt("anchor_rssi", float, required=True),
        _Opt("anchor_slope", float, 0.0),
    )),
    "evaluate": (_cmd_evaluate, "in-sample RMSE over lags", (
        _IN,
        _INTERVAL,
        _METHOD,
        _Opt("lags", str, "1,2,3", help="comma-separated lag steps, e.g. 1,2,3"),
        _Opt("out", required=True, help="report basename; writes .csv and .json"),
    )),
    "atpc": (_cmd_atpc, "run the closed power-control loop", (
        _CHANNEL, _RADIO,
        _Opt("threshold", float, -90.0),
        _Opt("margin", float, 3.0),
        _Opt("max_missed", int, 5),
        _Opt("method", str, predictor.METHOD_ORTHONORMAL, CONTROLLER_METHODS),
        _PACKETS, _SEED,
        _Opt("loss"),
        _PATH_LOSS,
        _Opt("out"),
    )),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="rssikit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, table) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for o in table:
            # Required options are checked in main, so usage keeps them in
            # brackets and a config file may supply them.
            p.add_argument(o.flag, dest=o.name, type=o.type, choices=o.choices,
                           default=o.default, help=o.help)
        p.add_argument("--config", help="flat key = value file; flags win")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        command = args.command
        if args.config:
            # Config lines go ahead of the command line's own flags, which
            # argparse lets win.
            at = argv.index(command) + 1
            args = parser.parse_args(
                argv[:at] + _config_flags(args.config, command) + argv[at:])
        opts = vars(args)
        for o in _COMMANDS[command][2]:
            if o.required and opts[o.name] is None:
                raise ValueError(f"{command}: {o.flag} is required")
        return _COMMANDS[command][0](opts)
    except ValueError as exc:
        print(f"rssikit: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"rssikit: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
