"""The golden byte corpus (tests/golden): every command of its list prints,
writes and exits exactly as the committed manifest records. A change to any
CLI byte fails here; rewrite the manifest with ``tests/golden/corpus.py`` only
for a byte change that is meant."""

import json

from golden import corpus


def test_cli_bytes_match_the_manifest(tmp_path):
    with open(corpus.MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    entries = corpus.run(tmp_path)
    assert [e["command"] for e in entries] == [e["command"] for e in manifest["commands"]], \
        "commands.txt and manifest.json list different commands; rewrite the manifest"
    moved = [f"{want['command']}: {key} {want[key]} -> {got[key]}"
             for got, want in zip(entries, manifest["commands"])
             for key in ("exit", "stdout", "stderr", "files") if got[key] != want[key]]
    env = corpus.environment()
    recorded = {key: manifest[key] for key in env}
    assert not moved, (f"{len(moved)} hashes moved (manifest taken with {recorded}, "
                       f"this run with {env}):\n" + "\n".join(moved))
