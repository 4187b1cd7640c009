"""The `repro` command-line surface, pinned.

`cli_surface.json` records, for every verb, each option's option
strings, dest, default, choices, nargs and whether it is a flag (help
text and metavars are left out, so rewording a help line moves
nothing).  A refactor of `repro.cli` must leave this record equal: no
verb, flag, default or choice lost or changed.  Regenerate it only
when the CLI is meant to change:

    PYTHONPATH=src python tests/test_cli_surface.py
"""

from __future__ import annotations

import argparse
import json
import pathlib

PIN = pathlib.Path(__file__).with_name("cli_surface.json")


def surface() -> dict:
    from repro.cli import build_parser

    verbs = {}
    for action in build_parser()._subparsers._group_actions:
        for verb, sub in action.choices.items():
            verbs[verb] = [
                {"option_strings": list(a.option_strings), "dest": a.dest,
                 "default": a.default,
                 "choices": None if a.choices is None else list(a.choices),
                 "nargs": a.nargs, "flag": a.nargs == 0}
                for a in sub._actions
                if not isinstance(a, argparse._HelpAction)]
    return verbs


def test_cli_surface_matches_pin():
    pinned = json.loads(PIN.read_text())
    now = json.loads(json.dumps(surface()))
    assert sorted(now) == sorted(pinned)
    for verb, options in pinned.items():
        key = lambda o: o["dest"]  # noqa: E731 - declaration order is free
        assert sorted(now[verb], key=key) == sorted(options, key=key), verb


if __name__ == "__main__":
    verbs = surface()
    PIN.write_text("{\n" + ",\n".join(
        f" {json.dumps(verb)}: [\n" + ",\n".join(
            "  " + json.dumps(o, sort_keys=True) for o in verbs[verb]) + "]"
        for verb in sorted(verbs)) + "\n}\n")
    print(f"wrote {PIN}")
