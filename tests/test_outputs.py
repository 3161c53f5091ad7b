"""Every file the commands write on the shipped configs, pinned by hash.

Each file's SHA-256 (what ``sha256sum`` prints for it) is pinned under
its config, so a failing pin names the files that moved, and any changed
byte fails.  A change that moves an output must say why and update the
hashes here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from finslerflow import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
COMMANDS = ("classify", "integrate", "singular", "portrait", "puiseux", "verify")

# config stem -> {file name: SHA-256}
HASHES = {
    "berwald_moor_tangency": {
        "berwald_moor_family00.csv":
            "33a96443bfdeaa4e0f9a41a6a3fa453a925829b010be45b8d73777aac1992125",
        "berwald_moor_family01.csv":
            "ddebe094333aba00c8ae9aa3748c3c76c6d50a221341288ea55468733edf6a48",
        "berwald_moor_family02.csv":
            "09ed3c64c46ce00429bc2647ee368fba9265fbe7fff61bbeec29d409a5d9a729",
        "berwald_moor_family03.csv":
            "6fa34d300e70ae0c7281ed1323174c63d856b0b7e02028ca47f20b6a848d3bd8",
        "berwald_moor_portrait.svg":
            "51e5c2e0a29c6bf2e60ed58c5b874698a187496d6ee2f19504a4a5ae73463a66",
        "berwald_moor_series.csv":
            "833f56550a1070f77650d88d52f7e6742f5c23f705b73eb1b5561a8e1409bdd3",
        "berwald_moor_series.txt":
            "67c5b4ad8cc5051c13b1df32bfe56ef72ffb6471d69de77bacfd833063216fac",
        "berwald_moor_singular_points.csv":
            "83a84c95e1c3a6fa87d1059bbe01c7165ed76d70a144cd6d93aa023c21e717ad",
        "berwald_moor_strata.csv":
            "d84b0664c44be0bdd737b62c5dbfb0c7a5cd2e40be91bf28adcb3e599328baba",
        "berwald_moor_trace00.csv":
            "b9cce73dda0bbb69079f5bd74d441fa56c8676679126264269a80894d32e0104",
        "berwald_moor_trace01.csv":
            "50a4609c4563c92cd8f8cf3b4cff687c8a89fa008fd106176c445d883db20bb3",
    },
    "halfplane": {
        "halfplane_locus00_boundary.csv":
            "5fed0f1f2f665954afc718b9dd8791189b4d407440505077588c457843bc1906",
        "halfplane_portrait.svg":
            "aa2f0f3dea63f8b7beebb4010311cb4d2bd68927ccae0db5319bf50919f8ed95",
        "halfplane_singular_points.csv":
            "83a84c95e1c3a6fa87d1059bbe01c7165ed76d70a144cd6d93aa023c21e717ad",
        "halfplane_strata.csv":
            "216103dc4ddff85ee433dac7e93309be3f72574caf27432f08989f9b59d47ac5",
        "halfplane_trace00.csv":
            "adcc9a6e3a3170beb787179d70801a9027a56555ed29b39ccc49198bd607c747",
        "halfplane_trace01.csv":
            "03ceaef66f18ecb2dc5cb6497f4ad87728cf94ab544086ab9ce0acc84c3309f9",
        "halfplane_trace02.csv":
            "56d6a96835583c6f2ce2bfee6330a2d1bcf609dc74b6940c4181cf1c453561a5",
        "halfplane_trace03.csv":
            "ade095e0e717035d8c6291f7ed8b59d7cdba44f2a7e77bc00e580a59622de485",
    },
    "parabola": {
        "parabola_locus00_singular.csv":
            "1f58a41bad40db95faccf53150c27e87987040c064e257231ac44d1374bcbf7e",
        "parabola_locus01_boundary.csv":
            "05535fd1e18133edd573cd88e10638b901d03eefe8b6591e2b3732333e0b6782",
        "parabola_portrait.svg":
            "df31c44364b953cb46c1bbf92856fe261ed56ca9769835ee93f07f9b49ce5376",
        "parabola_singular_points.csv":
            "5d7cec1041003a6c2af387c6ea52172e5e14a30f4c3aa61978bd24f6b47f180e",
        "parabola_strata.csv":
            "4b3db0ec0fe1faa6962b136ee94922ad43cb6da4bfa6fe7cb0efc436a9d4760e",
        "parabola_trace00.csv":
            "de375c9ceca5e8024fc9538316e7e854553b4a58be1d2e19ad42b481ae1b0806",
        "parabola_trace01.csv":
            "2d76389d55aae2416f5fcb78a36418a9eb0357bb668e6627036d3612c7b8d79e",
        "parabola_trace02.csv":
            "b7b706c394e7e1aa1e6abeffbe0e29fb36a46b413a44b549a1f808d2ea24e50c",
    },
    "parabola_neg": {
        "parabola_neg_locus00_singular.csv":
            "0ac850ceae9cd6adfb8c55fd2f77d0c9c517e7a561c3d0a1d9425bdd4a04732e",
        "parabola_neg_locus01_boundary.csv":
            "488e4d1784d0b77932b9ae2738599173ce6117b3fc2edd5da932d6192bf3a7a3",
        "parabola_neg_portrait.svg":
            "7a42147e79a1161cf05a26bbb098a710c2ea9fca87f4b49a77aa64db5d58eb0d",
        "parabola_neg_singular_points.csv":
            "bfba67a3253c41d92c44bce4f474411d6271fe8e8cafcc6190d8171c862c4593",
        "parabola_neg_strata.csv":
            "8e8523210c6e79689439103b913d27283d3073a3a2eff96cb9655074511f466c",
        "parabola_neg_trace00.csv":
            "0fb4261146951d66fad0277853a0732d2cf77e88cad10ccd94ba62c28dc96b45",
        "parabola_neg_trace01.csv":
            "84314268b2d6e833bf214d060e5f6219f1ac081aa3a56028119fcd831bb536dd",
        "parabola_neg_trace02.csv":
            "f1138e7fdded45d5f69c1441036fac5cdee5f2eccda2257adc42e4d569202784",
    },
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """({file name: SHA-256}, exit codes) per config stem."""
    root = tmp_path_factory.mktemp("outputs")
    hashes, codes = {}, {}
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        out = root / cfg.stem
        out.mkdir()
        codes[cfg.stem] = {
            cmd: cli.main([cmd, "--config", str(cfg), "--out", str(out)])
            for cmd in COMMANDS
        }
        hashes[cfg.stem] = {
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.rglob("*")
            if p.is_file()
        }
    return hashes, codes


@pytest.mark.parametrize("stem", sorted(HASHES))
def test_config_outputs(outputs, stem):
    hashes, codes = outputs
    # puiseux needs series_seed in coefficients mode and exits 2
    want_rc = {cmd: 0 for cmd in COMMANDS}
    if stem != "berwald_moor_tangency":
        want_rc["puiseux"] = 2
    assert codes[stem] == want_rc
    moved = sorted(
        name for name in HASHES[stem].keys() | hashes[stem].keys()
        if HASHES[stem].get(name) != hashes[stem].get(name)
    )
    assert moved == []


def test_all_outputs(outputs):
    # the shipped configs are all run, and write 35 files in all
    assert sorted(outputs[0]) == sorted(HASHES)
    assert sum(map(len, outputs[0].values())) == 35
