"""The premise of latent-domain gating, end to end through the CLI.

When cue polarity flips between domain groups, a cue is uninformative
pooled over domains, so a classifier has to route by domain to use it on
held-out domains. The discrete latent-domain mixture (``dsda``) should
then beat the uniform-gate mixture (``mcnn``) on held-out test accuracy.

One fixed recipe, with the mean over three corpus seeds, each also the
training seed. Only the supervised regime is asserted: in the
semi-supervised and unsupervised regimes the two kinds differ by about a
point or less on this recipe, which three seeds cannot resolve.
"""

import numpy as np

from domaingate import cli

RECIPE = """\
regime = supervised
k = 4
embed_dim = 32
n_filters = 16
windows = 3,4,5
mlp_hidden = 32
lr = 0.01
batch_size = 16
max_epochs = 15
patience = 6
"""


def test_dsda_beats_uniform_mixture_on_held_out_domains(tmp_path):
    test_acc = {"mcnn": [], "dsda": []}
    for seed in (1, 2, 3):
        spec = tmp_path / f"synth{seed}.cfg"
        spec.write_text(f"seed = {seed}\nunlabeled_per_domain = 150\n")
        corpus = tmp_path / f"corpus{seed}"
        assert cli.main(["gen-synth", "--spec", str(spec), "--out", str(corpus)]) == 0
        cfg = tmp_path / f"run{seed}.cfg"
        cfg.write_text(RECIPE + f"seed = {seed}\ntrain_data = {corpus / 'train.jsonl'}\n"
                       f"eval_data = {corpus / 'heldout.jsonl'}\n")
        grid = tmp_path / f"grid{seed}"
        assert cli.main(["grid", "--config", str(cfg), "--vary", "model=mcnn,dsda",
                         "--out", str(grid)]) == 0
        for row in (grid / "grid.tsv").read_text().splitlines()[1:]:
            _, model, _, test = row.split("\t")
            test_acc[model].append(float(test))
    mean = {model: np.mean(accs) for model, accs in test_acc.items()}
    assert mean["dsda"] > mean["mcnn"], test_acc
