"""Shared test helpers."""

import sys

import pytest

from schurkron import tableaux


@pytest.fixture
def fill_walks(monkeypatch):
    """The walks of the fill engine, as (cells, alpha, kron) in call order,
    kron telling whether the walk carries a Kronecker check.

    ``tableaux._fill`` is replaced in every loaded ``schurkron`` module that
    names it: a module that imports it by name calls its own reference, so a
    patch of ``tableaux`` alone would miss that module's walks."""
    walks = []
    fill = tableaux._fill
    no_check = tableaux._kron_setup((), (), (), False)

    def logged_fill(cells, alpha, check=no_check, *args, **kwargs):
        walks.append((cells, alpha, check != no_check))
        return fill(cells, alpha, check, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "schurkron" and vars(module).get("_fill") is fill:
            monkeypatch.setattr(module, "_fill", logged_fill)
    return walks
