"""Every file the commands write on the shipped configs, pinned by hash.

Each config's files are listed as ``sha256sum`` prints them
(``<hash>  ./<config stem>/<file>``, sorted by path), and the SHA-256 of
the listing is pinned, per config and for all four together; the latter
is what ``find . -type f | sort | xargs sha256sum | sha256sum`` prints
in the output directory.  A change that moves an output must say why
and update the hashes here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from finslerflow import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
COMMANDS = ("classify", "integrate", "singular", "portrait", "puiseux", "verify")

# config stem -> (number of files, SHA-256 of its listing)
LISTINGS = {
    "berwald_moor_tangency": (
        11, "6e2daa4440fb4193f3e1d9d5cb2d6f47f1d33d4c6bacae8af4c5b59a3966dedb"
    ),
    "halfplane": (
        8, "385d7a8861ad83ddf0bb785e734d5a7389c3afeba9f8acb9e1bfeb8c25a45185"
    ),
    "parabola": (
        11, "182829131ba73a242cda4eee260e93f3bf5894e9eb3bac301d04571cc2a1e62a"
    ),
    "parabola_neg": (
        32, "897ea238bcba7388d3ae89a751f4e0aade5f5f85a4791561509ffdba0e9b052c"
    ),
}
ALL_LISTING = "673b777a573625ce5bbc14ce13e5d02d82930551ffa32dd22d118f9564a09456"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(listing lines, exit codes) per config stem."""
    root = tmp_path_factory.mktemp("outputs")
    listings, codes = {}, {}
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        out = root / cfg.stem
        out.mkdir()
        codes[cfg.stem] = {
            cmd: cli.main([cmd, "--config", str(cfg), "--out", str(out)])
            for cmd in COMMANDS
        }
        listings[cfg.stem] = [
            f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
            f"./{p.relative_to(root).as_posix()}\n"
            for p in sorted(out.rglob("*"), key=lambda p: p.as_posix())
            if p.is_file()
        ]
    return listings, codes


@pytest.mark.parametrize("stem", sorted(LISTINGS))
def test_config_outputs(outputs, stem):
    listings, codes = outputs
    # puiseux needs series_seed in coefficients mode and exits 2
    want_rc = {cmd: 0 for cmd in COMMANDS}
    if stem != "berwald_moor_tangency":
        want_rc["puiseux"] = 2
    assert codes[stem] == want_rc
    count, digest = LISTINGS[stem]
    assert len(listings[stem]) == count
    assert _sha("".join(listings[stem])) == digest


def test_all_outputs(outputs):
    lines = sorted(
        (line for stem in outputs[0] for line in outputs[0][stem]),
        key=lambda line: line.split("  ", 1)[1],
    )
    assert len(lines) == 62
    assert _sha("".join(lines)) == ALL_LISTING
