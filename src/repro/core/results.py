"""Result containers and tabulation helpers for experiments and benchmarks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class SweepTable:
    """A small column-oriented table of experiment results.

    Used by every experiment driver to return its figure data in a uniform,
    easily printable / exportable form.

    Attributes
    ----------
    title:
        Table caption (usually the figure it reproduces).
    columns:
        Column names, in display order.
    rows:
        One dict per row, keyed by column name.
    metadata:
        Free-form experiment parameters (scale, seeds, configuration).
    """

    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def add_row(self, **values: Any) -> None:
        """Append a row; values for unknown columns raise immediately."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns: {sorted(unknown)}")
        self.rows.append(dict(values))

    def column(self, name: str) -> List[Any]:
        """Extract one column as a list."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}")
        return [row.get(name) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------ #
    def to_markdown(self, float_format: str = "{:.4g}") -> str:
        """Render the table as GitHub-flavoured markdown."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return float_format.format(value)
            return str(value)

        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(fmt(row.get(c, "")) for c in self.columns) + " |")
        return "\n".join(lines)

    def print(self) -> None:
        """Print the markdown rendering (used by example scripts and benches)."""
        print(self.to_markdown())

    # ------------------------------------------------------------------ #
    # JSON (de)serialisation — the result-cache / golden-file format
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-dict form with only JSON-representable values."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [{c: _jsonable(row.get(c)) for c in self.columns if c in row} for row in self.rows],
            "metadata": {k: _jsonable(v) for k, v in sorted(self.metadata.items())},
        }

    def to_json(self) -> str:
        """Canonical JSON rendering (sorted keys, stable float repr).

        Two tables with bit-identical contents serialise to byte-identical
        text — the property the determinism tests and the golden-seed
        regression suite assert on.
        """
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "SweepTable":
        """Rebuild a table from :meth:`to_json_dict` output."""
        table = cls(
            title=payload["title"],
            columns=list(payload["columns"]),
            metadata=dict(payload.get("metadata", {})),
        )
        for row in payload.get("rows", []):
            table.add_row(**row)
        return table


def _jsonable(value: Any):
    """Coerce numpy scalars (and sequences thereof) to plain JSON types."""
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value
