"""Machine-readable export of the figure data.

``python -m repro export fig3`` (or :func:`export_figure`) emits the data
of one :data:`~repro.analysis.figures.FIGURES` entry as JSON — the bridge
to whatever plotting stack a user prefers.  The JSON mirrors the builder
dataclasses: keys are field names, series are lists, nothing is
pre-formatted.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional

from ..config import ServerConfig
from ..errors import ReproError
from ..guardband import GuardbandMode
from .figures import FIGURES


def _jsonable(value: Any) -> Any:
    """Recursively convert builder outputs into JSON-safe structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, GuardbandMode):
        return value.value
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    # Objects with no natural JSON shape (fitted models, raw predictors)
    # export their public floats.
    public = {
        name: getattr(value, name)
        for name in dir(value)
        if not name.startswith("_")
        and isinstance(getattr(type(value), name, None), property)
    }
    if public:
        return {k: _jsonable(v) for k, v in public.items()}
    return str(value)


def figure_data(name: str, config: Optional[ServerConfig] = None) -> Dict[str, Any]:
    """Regenerate one figure and return its data as plain structures."""
    if name not in FIGURES:
        raise ReproError(f"unknown figure {name!r}; exportable: {', '.join(FIGURES)}")
    return {"figure": name, "data": _jsonable(FIGURES[name].build(config))}


def export_figure(
    name: str, config: Optional[ServerConfig] = None, indent: int = 2
) -> str:
    """One figure's regenerated data as a JSON string."""
    return json.dumps(figure_data(name, config), indent=indent)
