"""The file-system layer: sibling names, whole-file writes, and the guard
that keeps it the only module that names a write's leftovers or takes a
lock; and the guard that keeps the package namespace free of re-exports."""

import ast
from pathlib import Path

import pytest

import nevo
from nevo import store
from nevo.errors import NevoError
from nevo.persistence import RunDir


def test_sibling_names_a_file_beside_its_target(tmp_path):
    assert store.sibling(tmp_path / "run", store.LOCK) == \
        tmp_path / "run.lock"
    assert store.sibling("a/b.ckpt", store.TMP) == Path("a/b.ckpt.tmp")


@pytest.mark.parametrize("path", ["/", Path("/")])
def test_sibling_of_the_root_is_a_typed_error(path):
    with pytest.raises(NevoError, match="has no name to put a .lock beside"):
        store.sibling(path, store.LOCK)


def test_a_run_directory_at_the_root_is_refused_when_constructed():
    """`train --out /` fails here, before RunDir is entered or writes."""
    with pytest.raises(NevoError, match="has no name"):
        RunDir("/", new=True)


def test_a_refused_rename_removes_its_tmp_file(tmp_path):
    """A rename the OS refuses, onto a directory, leaves no <name>.tmp."""
    target = tmp_path / "rows.json"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        store.atomic_write(target, b"rows\n")
    assert [p.name for p in tmp_path.iterdir()] == ["rows.json"]


def test_only_store_spells_a_leftover_or_imports_fcntl_or_shutil():
    """store owns the suffixes a write leaves beside its target, which
    readers skip, and the lock; a module that spelled one or locked on its
    own would be a second owner that drifts from it."""
    found = []
    for path in sorted(Path(nevo.__file__).parent.glob("*.py")):
        if path.name == "store.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            found += [(path.name, node.lineno, name) for name in names
                      if name.partition(".")[0] in ("fcntl", "shutil")]
            if isinstance(node, ast.Constant) and \
                    node.value in (".tmp", ".old", ".lock"):
                found.append((path.name, node.lineno, node.value))
    assert found == []


def test_the_package_binds_no_public_function_or_class_but_blas_threads():
    """Each public name has one home, its module (`nevo.training.train`);
    a re-export in nevo/__init__.py would be a second one to keep in step.
    `from . import module` binds modules, which stay."""
    tree = ast.parse(Path(nevo.__file__).read_text())
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            names = []
        found += [(node.lineno, name) for name in names
                  if not name.startswith("_") and name != "blas_threads"]
    assert found == []
