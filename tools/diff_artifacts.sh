#!/usr/bin/env bash
# Check that the working tree writes the same artifacts as a git revision.
#
# Usage: tools/diff_artifacts.sh <rev>
#
# Extracts src/ of <rev> with `git archive` into a temporary directory and
# runs the same commands with it and with the working tree's src/, BLAS
# pinned to one thread:
#   - `run` on the default config (master seed 777),
#   - `run` with DP-SGD (clip 10, noise 1.0) on the target and reference
#     models, attacks loss, calibration and lira_offline (seed 919),
#   - `run` of the loss attack alone (seed 777),
#   - the two benchmark sweep shapes: num_reference_models 1,2,4 with
#     calibration, and num_queries 1,4,8 with rapid (seeds 4243 and 4244, so
#     each sweep shares models, queries and stacked loops across its values
#     and keeps them apart across its seeds),
#   - five `run`s on 1200 samples that cover the other signal and query
#     paths: the gradnorm signal, the confidence signal with logit scaling,
#     one query per sample, zero query noise with the default 8 queries (one
#     query matrix serves every count), and an [attacker_data] source with
#     attacks shortcut_lira, rapid and loss (seed 31),
#   - three more `run`s on those 1200 samples, one per way the pipeline groups
#     its models for stacked training: reference models on random subsets
#     ([reference] sampling = random), a [train.shadow] that differs from
#     [train.target] (so target and shadow train apart), and DP-SGD on the
#     target alone (the DP target trains alone, its shadow in another loop),
#   - a `run` on those 1200 samples with DP-SGD clipping and no noise (clip
#     10, noise 0.0, on the target and reference models), so a change to
#     clipping shows apart from a change to the noise stream,
#   - a reference_sampling_mode fixed,random sweep of all five attacks on
#     those 1200 samples (seeds 31 and 32),
#   - `gen-data` of the 1200-sample config, and a `run` with `source = csv`
#     on the written file, which is compared too (it is written to one fixed
#     path, as the path is part of the run's config digest).
# Ends with `diff -r` of the two output trees; exits non-zero on any
# difference or failed command. On a difference it then prints, per differing
# file, how many CSV cells or JSON numbers differ and the largest absolute
# difference among them, so a change in the last bits reads as one.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
rev=$1
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/rev"
git -C "$root" archive "$rev" src | tar -x -C "$work/rev"

export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONDONTWRITEBYTECODE=1

ini() {  # <name> <ini text>
    printf '%s\n' "$2" > "$work/$1.ini"
}
ini default '[experiment]
master_seed = 777'
ini dp '[dp]
clip_norm = 10.0
noise_multiplier = 1.0
apply_to = target,reference

[attacks]
enabled = loss,calibration,lira_offline

[experiment]
master_seed = 919'
ini loss '[attacks]
enabled = loss

[experiment]
master_seed = 777'
ini calibration '[attacks]
enabled = calibration'
ini rapid '[attacks]
enabled = rapid'
small='[data]
n_samples = 1200

[experiment]
master_seed = 31'
ini gradnorm "$small
[signal]
kind = gradnorm"
ini logit "$small
[signal]
kind = confidence
logit_scaling = true"
ini one_query "$small
[signal]
num_queries = 1"
ini zero_noise "$small
[signal]
augmentation_noise_std = 0.0"
ini attacker "$small
[attacker_data]
n_samples = 1200

[attacks]
enabled = shortcut_lira,rapid,loss"
ini random_refs "$small
[reference]
sampling = random"
ini shadow_epochs "$small
[train.shadow]
epochs = 40"
ini dp_target "$small
[dp]
clip_norm = 10.0
noise_multiplier = 1.0
apply_to = target"
ini dp_clip "$small
[dp]
clip_norm = 10.0
noise_multiplier = 0.0
apply_to = target,reference"
ini small "$small"
ini csv "[data]
source = csv
path = $work/data.csv

[experiment]
master_seed = 31"

run_side() {  # <src dir> <output dir>
    local src=$1 out=$2
    mia() {
        PYTHONPATH="$src" python3 -m mia_audit.cli "$@" > /dev/null
    }
    mia run "$work/default.ini" -o "$out/default"
    mia run "$work/dp.ini" -o "$out/dp"
    mia run "$work/loss.ini" -o "$out/loss"
    mia sweep "$work/calibration.ini" --axis num_reference_models --values 1,2,4 \
        --seeds 4243,4244 -o "$out/sweep_references"
    mia sweep "$work/rapid.ini" --axis num_queries --values 1,4,8 \
        --seeds 4243,4244 -o "$out/sweep_queries"
    mia sweep "$work/small.ini" --axis reference_sampling_mode --values fixed,random \
        --seeds 31,32 -o "$out/sweep_sampling"
    local name
    for name in gradnorm logit one_query zero_noise attacker random_refs shadow_epochs dp_target dp_clip; do
        mia run "$work/$name.ini" -o "$out/$name"
    done
    mia gen-data "$work/small.ini" -o "$work/data.csv"
    cp "$work/data.csv" "$out/data.csv"
    mia run "$work/csv.ini" -o "$out/csv"
}

echo "running $rev ..." >&2
run_side "$work/rev/src" "$work/out/rev"
echo "running the working tree ..." >&2
run_side "$root/src" "$work/out/tree"

if diff -r "$work/out/rev" "$work/out/tree"; then
    echo "no difference: $(find "$work/out/tree" -type f | wc -l) files identical to $rev"
else
    python3 - "$work/out/rev" "$work/out/tree" >&2 <<'PY'
import csv, difflib, filecmp, json, os, sys


def number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def json_pairs(a, b):
    """(old, new) scalar pairs at the same key path, and the count of paths in one file only."""
    def flat(value, at=()):
        if isinstance(value, dict):
            return {k: v for key, item in value.items() for k, v in flat(item, at + (key,)).items()}
        if isinstance(value, list):
            return {k: v for i, item in enumerate(value) for k, v in flat(item, at + (i,)).items()}
        return {at: value}
    def load(path):
        with open(path, encoding="utf-8") as fh:
            return flat(json.load(fh))
    old, new = load(a), load(b)
    return [(old[k], new[k]) for k in old.keys() & new.keys()], len(old.keys() ^ new.keys())


def csv_pairs(a, b):
    """(old, new) cell pairs of aligned rows, and the count of rows in one file only.

    Rows are aligned on their cells rounded to 10 significant digits, so a
    ROC curve that gains or loses a threshold row still pairs the rows below it.
    """
    def rows(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    def key(row):
        return tuple(cell if number(cell) is None else f"{number(cell):.10g}" for cell in row)
    old, new = rows(a), rows(b)
    matcher = difflib.SequenceMatcher(None, list(map(key, old)), list(map(key, new)), autojunk=False)
    pairs, unmatched = [], 0
    for _, i1, i2, j1, j2 in matcher.get_opcodes():
        if i2 - i1 == j2 - j1:
            pairs += [cells for x, y in zip(old[i1:i2], new[j1:j2]) for cells in zip(x, y)]
        else:
            unmatched += (i2 - i1) + (j2 - j1)
    return pairs, unmatched


rev, tree = sys.argv[1:]
names = set()
for top in (rev, tree):
    for folder, _, files in os.walk(top):
        names.update(os.path.relpath(os.path.join(folder, f), top) for f in files)
print("differing files:")
for name in sorted(names):
    paths = os.path.join(rev, name), os.path.join(tree, name)
    if not all(map(os.path.isfile, paths)):
        side = "working tree" if os.path.isfile(paths[1]) else "revision"
        print(f"  {name}: only in the {side}")
        continue
    if filecmp.cmp(*paths, shallow=False):
        continue
    is_json = name.endswith(".json")
    pairs, unmatched = (json_pairs if is_json else csv_pairs)(*paths)
    differ = [(x, y) for x, y in pairs if x != y]
    gaps = [abs(number(x) - number(y)) for x, y in differ
            if number(x) is not None and number(y) is not None]
    text = f"{len(differ)} of {len(pairs)} {'JSON values' if is_json else 'CSV cells'} differ"
    if gaps:
        text += f", {len(gaps)} numeric (largest absolute difference {max(gaps):.3g})"
    if unmatched:
        text += f"; in one file only: {unmatched} {'JSON values' if is_json else 'CSV rows'}"
    print(f"  {name}: {text}")
PY
    echo "artifacts differ from $rev" >&2
    exit 1
fi
