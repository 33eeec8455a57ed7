"""Every public name in the package has a caller in the package.

A public top-level function or class of a `src/mia_audit` module, or a public
method of such a class, counts as used when an `ast.Name` or `ast.Attribute`
with its name appears somewhere in the package outside its own definition and
outside `__init__.py`. Matching is by bare name, so a name that shares its
spelling with another attribute counts as used; the check errs toward passing.

The names that are public for tests or readers alone are listed in ALLOWED
with the reason they stay. A new name that only tests call fails the test,
and so does an entry of ALLOWED that the package has since started to use or
has removed.
"""

import ast
import collections
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "mia_audit"

ALLOWED = {
    # called by the acceptance criteria
    "nn.backward": "criterion 1 checks it against finite differences",
    "nn.MLPClassifier.with_parameters": "criterion 1 perturbs a model's parameters with it",
    "nn.MLPClassifier.num_parameters": "criterion 1 bounds the model size with it",
    "nn.per_sample_loss": "criterion 1's reference loss: it takes finite differences of it",
    "pipeline.SweepResult.metric_by_value": "criterion 7 reads the sweep trends with it",
    # one reader per artifact format; criterion 8 round-trips the first three
    "signals.ScoreTable.from_csv": "reads target_scores.csv and shadow_scores.csv",
    "evaluation.RocCurve.from_csv": "reads roc_<attack>.csv",
    "evaluation.read_bucket_csv": "reads loss_buckets_{raw,calibrated}.csv",
    "dataset.SplitPlan.from_json": "reads split.json",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function or class and
    of each public method of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _name_counts(tree: ast.AST) -> collections.Counter:
    """How often each name appears in tree as an ast.Name or ast.Attribute."""
    return collections.Counter(node.id if isinstance(node, ast.Name) else node.attr
                               for node in ast.walk(tree)
                               if isinstance(node, (ast.Name, ast.Attribute)))


def unreferenced_names(package: pathlib.Path = PACKAGE) -> set:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"}
    everywhere = sum((_name_counts(tree) for tree in trees.values()), collections.Counter())
    unused = set()
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if everywhere[name] == _name_counts(node)[name]:  # only its own body names it
                unused.add(f"{module}.{qualname}")
    return unused


def test_every_public_name_is_used_or_allowed():
    assert unreferenced_names() == set(ALLOWED)


def test_scan_sees_a_test_only_name(tmp_path):
    # a copy of the package with one extra public function that only refers
    # to itself, and one re-export of it from __init__.py
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "attacks.py", "a") as f:
        f.write("\n\ndef only_tests_call_this():\n    return only_tests_call_this\n")
    with open(tmp_path / "__init__.py", "a") as f:
        f.write("\nonly = attacks.only_tests_call_this\n")
    assert unreferenced_names(tmp_path) == set(ALLOWED) | {"attacks.only_tests_call_this"}
