"""Byte-identity of the CLI: the sha256 of ``lie`` and ``verify`` stdout
(json format) and their exit codes on every shipped algebra, as recorded in
``cli_stdout_sha256.json`` before the Ext route identified middle terms
among the bracket-bounded classes.  A change that alters any of these
outputs must say so and re-record the file."""

import contextlib
import hashlib
import io
import json
import os

import pytest

import hallie
from hallie.cli import run

with open(os.path.join(os.path.dirname(__file__), "cli_stdout_sha256.json"),
          encoding="utf-8") as _fh:
    PINNED = json.load(_fh)


def test_every_shipped_algebra_is_pinned():
    assert sorted(PINNED) == sorted(f"{command}:{name}" for command in ("lie", "verify")
                                    for name in hallie.example_algebra_names())


@pytest.mark.parametrize("key", sorted(PINNED))
def test_stdout_and_exit_code_are_pinned(key):
    command, name = key.split(":")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([command, "--algebra", hallie.example_algebra_path(name),
                    "--format", "json"])
    assert {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()} \
        == PINNED[key]
