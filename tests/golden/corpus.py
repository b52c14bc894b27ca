"""The golden byte corpus: every command of ``commands.txt`` run through
click's ``CliRunner``, and the SHA-256 of what each one prints and writes.

For each command the manifest holds its exit code, the hash of its stdout
and of its stderr (the scratch and corpus directories masked as ``{tmp}``
and ``{golden}``), and the hash of every file it created or changed, by path
under the scratch directory. It also records the numpy version and BLAS the
hashes were taken with; a hash that moves after an upgrade of either is a
real byte change, and the test reports it as one.

    python tests/golden/corpus.py

rewrites ``manifest.json`` from the tauscreen on ``sys.path`` (run it with
``PYTHONPATH=src`` from the repository root).
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import sys
import tempfile

import numpy as np
from click.testing import CliRunner

from tauscreen.cli import main

GOLDEN = os.path.dirname(os.path.abspath(__file__))
COMMANDS = os.path.join(GOLDEN, "commands.txt")
MANIFEST = os.path.join(GOLDEN, "manifest.json")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> dict:
    """The numpy version and the BLAS it was built against."""
    config = getattr(np.__config__, "CONFIG", {})  # numpy >= 1.25
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()}


def commands() -> list[str]:
    with open(COMMANDS, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip() and not line.startswith("#")]


def _snapshot(root) -> dict[str, str]:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root).replace(os.sep, "/")] = _sha(fh.read())
    return out


def run(tmp) -> list[dict]:
    """Run every command in the scratch directory ``tmp``: one manifest entry each."""
    tmp = os.path.abspath(tmp)

    def mask(text: str) -> bytes:
        return text.replace(tmp, "{tmp}").replace(GOLDEN, "{golden}").encode("utf-8")

    runner, entries, before = CliRunner(), [], _snapshot(tmp)
    for line in commands():
        args = [a.replace("{tmp}", tmp).replace("{golden}", GOLDEN) for a in shlex.split(line)]
        result = runner.invoke(main, args)
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            raise RuntimeError(f"{line}: uncaught {result.exception!r}") from result.exception
        after = _snapshot(tmp)
        entries.append({
            "command": line,
            "exit": result.exit_code,
            "stdout": _sha(mask(result.stdout)),
            "stderr": _sha(mask(result.stderr)),
            "files": {k: v for k, v in sorted(after.items()) if before.get(k) != v},
        })
        before = after
    return entries


def write_manifest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        doc = {**environment(), "commands": run(tmp)}
    with open(MANIFEST, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {MANIFEST}: {len(doc['commands'])} commands", file=sys.stderr)


if __name__ == "__main__":
    write_manifest()
