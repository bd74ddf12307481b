"""Where the package writes: every text file goes through `errors.write_text`, which makes
the file's directory as it writes it, so no other code opens a file for writing or makes a
directory. The chunk matrix's `np.save` in `dataset.save_dataset` is the one binary write;
the manifest is written before it, so its directory exists."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spklab"

# callees that make a directory or write a binary file, by their last name
MAKING_CALLS = {"makedirs", "mkdir", "save", "savez", "savez_compressed", "savetxt", "tofile",
                "write_bytes"}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _writes(call: ast.Call) -> bool:
    """Whether `open(...)` is called in a write, append or create mode; a mode that is not a
    string literal counts as one."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))


def _sites(node, owner: str, module: str):
    """(owner, callee) of each call under `node` that writes or makes a path, `owner` being
    the module.function it runs in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _sites(child, f"{module}.{child.name}", module)
            continue
        if isinstance(child, ast.Call):
            name = _callee(child)
            if name in MAKING_CALLS or (name == "open" and _writes(child)):
                yield owner, name
        yield from _sites(child, owner, module)


def writing_sites():
    """(module.function, callee) of each call in the package that writes or makes a path."""
    return sorted(site for path in SRC.glob("*.py")
                  for site in _sites(ast.parse(path.read_text(encoding="utf-8")),
                                     f"{path.stem}.<module>", path.stem))


def test_one_text_writer_makes_every_file_and_directory():
    assert writing_sites() == [
        ("dataset.save_dataset", "save"),
        ("errors.write_text", "makedirs"),
        ("errors.write_text", "open"),
    ]
