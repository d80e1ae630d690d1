"""The README names only what the package has.

Every backticked dotted name in README.md whose head is a module of the
package or a class one of its modules defines, such as
`MultiPoly.grid` or `telescoper.specialize`, must resolve attribute by
attribute; text after the name, such as an argument list, is ignored.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import hyperaccel

_README = Path(__file__).resolve().parents[1] / "README.md"


def _heads():
    modules = {m.name: importlib.import_module(f"hyperaccel.{m.name}")
               for m in pkgutil.iter_modules(hyperaccel.__path__)
               if m.name != "__main__"}
    classes = {name: obj for module in modules.values()
               for name, obj in vars(module).items()
               if inspect.isclass(obj) and obj.__module__ == module.__name__}
    return {**modules, **classes}


def _dotted_names(text, heads):
    for span in re.findall(r"`([^`\n]+)`", text):
        m = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if m and m.group().split(".")[0] in heads:
            yield m.group()


def _resolves(heads, name):
    head, *attrs = name.split(".")
    obj = heads[head]
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_dotted_names_resolve():
    heads = _heads()
    names = sorted(set(_dotted_names(_README.read_text(), heads)))
    assert len(names) >= 30
    assert [n for n in names if not _resolves(heads, n)] == []


def test_a_stale_name_is_caught():
    heads = _heads()
    text = "`MultiPoly.subst` and `catalog.PROPORTIONALITY_WINDOW(x)`"
    names = list(_dotted_names(text, heads))
    assert names == ["MultiPoly.subst", "catalog.PROPORTIONALITY_WINDOW"]
    assert not any(_resolves(heads, n) for n in names)
