"""The gen-synth command: spec file in, train/held-out corpora and a
manifest out, and a non-zero exit with a JSON error on a bad spec."""

import json

import pytest

from domaingate import cli
from domaingate import data as dio

SPEC = """\
# tiny generator spec
n_domains = 4
held_out = 3
instances_per_domain = 5
heldout_per_domain = 4
doc_len = 6
cues_per_doc = 2
flip_cues = no
seed = 7
"""


def test_gen_synth_writes_corpora_from_spec(tmp_path):
    spec = tmp_path / "synth.cfg"
    spec.write_text(SPEC)
    out = tmp_path / "corpus"
    assert cli.main(["gen-synth", "--spec", str(spec), "--out", str(out)]) == 0

    train = dio.load_corpus(out / "train.jsonl")
    heldout = dio.load_corpus(out / "heldout.jsonl")
    assert len(train) == 15 and train.domains == ["dom0", "dom1", "dom2"]
    assert len(heldout) == 4 and heldout.domains == ["dom3"]
    assert all(len(d.text.split()) == 6 for d in train.docs + heldout.docs)
    expected = dio.generate_synthetic(dio.SynthSpec(
        n_domains=4, held_out=(3,), instances_per_domain=5,
        heldout_per_domain=4, doc_len=6, cues_per_doc=2, flip_cues=False, seed=7))
    assert [d.text for d in train.docs + heldout.docs] == \
        [d.text for d in expected.docs]

    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["held_out"] == [3] and config["flip_cues"] is False


@pytest.mark.parametrize("line, message", [
    ("n_domain = 4", "unknown key"),
    ("held_out = 9", "held-out ids"),
])
def test_gen_synth_bad_spec_exits_nonzero(tmp_path, capsys, line, message):
    spec = tmp_path / "synth.cfg"
    spec.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert exc.value.code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert message in error["error"]
    assert not (tmp_path / "o").exists()
