"""Byte-identity of the CLI: the sha256 of ``lie``, ``verify`` and
``knit --with-maps`` stdout (json format) and their exit codes on every
shipped algebra, as recorded in ``cli_stdout_sha256.json`` (the ``lie`` and
``verify`` entries before the Ext route identified middle terms among the
bracket-bounded classes, the ``knit`` entries before the path basis was
read off commutativity classes).  The ``knit`` entries pin the projective
matrices, which a change of path basis would move.  A change that alters
any of these outputs must say so and re-record the file."""

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


FLAGS = {"knit": ["--with-maps"], "lie": [], "verify": []}


def test_every_shipped_algebra_is_pinned():
    assert sorted(PINNED) == sorted(f"{command}:{name}" for command in FLAGS
                                    for name in hallie.example_algebra_names())


@pytest.mark.parametrize("key", sorted(PINNED))
def test_stdout_and_exit_code_are_pinned(key):
    command, name = key.split(":")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([command, "--algebra", hallie.example_algebra_path(name),
                    "--format", "json", *FLAGS[command]])
    assert {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()} \
        == PINNED[key]
