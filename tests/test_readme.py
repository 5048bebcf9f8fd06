"""The examples printed in README.md match what the code prints today."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from loxgrow.cli import main
from loxgrow.freebasis import build_free_basis, certificate_payload
from loxgrow.spaces import make_backend
from loxgrow.words import make_generating_set

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# (info string, body) of every fenced block, in order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
TRANSCRIPTS = [body for info, body in BLOCKS if body.startswith("$ loxgrow ")]


def _block_after(info):
    for i, (kind, body) in enumerate(BLOCKS):
        if kind == info:
            return body, BLOCKS[i + 1][1]
    raise AssertionError(f"README has no {info} block")


def test_quick_start_output():
    code, expected = _block_after("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    assert out.getvalue() == expected


def test_readme_has_the_documented_transcripts():
    commands = [body.splitlines()[0] for body in TRANSCRIPTS]
    assert commands == [
        "$ loxgrow growth config.json --max-radius 4",
        "$ loxgrow check-cert cert.json",
    ]


@pytest.mark.parametrize("transcript", TRANSCRIPTS, ids=lambda t: t.split()[2])
def test_cli_transcript(transcript, tmp_path, monkeypatch, capsys):
    config, _ = _block_after("json")
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(config, encoding="utf-8")
    # the certificate that check-cert reads comes from free-basis
    assert main(["free-basis", "config.json", "--out", "cert.json"]) == 0
    command, expected = transcript.split("\n", 1)
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == expected


def test_certificate_key_list_matches_the_payload():
    # the "* `key`: ..." bullets of the Certificates section name every key
    # of a built certificate, and no other
    section = README.split("\n## Certificates\n", 1)[1].split("\n## ", 1)[0]
    listed = []
    for heads in re.findall(r"^\* ((?:`\w+`(?:, )?)+):", section, re.M):
        listed += re.findall(r"`(\w+)`", heads)
    S = make_generating_set(make_backend({"kind": "free_group_tree", "rank": 2}), ["a", "b"])
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(certificate_payload(build_free_basis(S)))
    # a half-plane certificate holds the same keys but the ones the README
    # marks as "geometric" mode only
    geometric = [key for key in listed if re.search(
        rf"^\* (?:`\w+`(?:, )?)*`{key}`[^*]*`\"geometric\"` mode only", section, re.M | re.S)]
    assert sorted(geometric) == ["basepoint", "m", "margin", "p_max"]
    S = make_generating_set(make_backend({"kind": "half_plane"}), [[[1, 2], [0, 1]], [[1, 0], [2, 1]]])
    payload = certificate_payload(build_free_basis(S))
    assert sorted(set(listed) - set(geometric)) == sorted(payload)
