"""Feature schema and the label-source PM names."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import IndicatorError, SchemaError

#: Label-source counters. UAS counts seconds a facility was unavailable,
#: HCCS counts seconds where forward-error-correction activity exceeded a
#: threshold; a future day with either > 0 marks a window positive.
UAS = "UAS"
HCCS = "HCCS"


@dataclass(frozen=True)
class FeatureSchema:
    """Column layout shared by every dataset built from one ingest.

    Columns are ordered numeric features first, then facility one-hot
    columns. ``protocol_indicators`` name the numeric features whose
    present-and-positive value means the port is carrying traffic.
    """

    numeric_features: tuple[str, ...]
    onehot_features: tuple[str, ...]
    protocol_indicators: tuple[str, ...] = ()
    _numeric_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        all_names = list(self.numeric_features) + list(self.onehot_features)
        if len(set(all_names)) != len(all_names):
            raise SchemaError("feature names must be unique across all lists")
        for name in (UAS, HCCS):
            if name not in self.numeric_features:
                raise SchemaError(f"label source {name!r} missing from numeric features")
        for name in self.protocol_indicators:
            if name not in self.numeric_features:
                raise IndicatorError(f"protocol indicator {name!r} missing from numeric features")
        object.__setattr__(
            self, "_numeric_index", {n: i for i, n in enumerate(self.numeric_features)}
        )

    @property
    def n_numeric(self) -> int:
        return len(self.numeric_features)

    @property
    def n_onehot(self) -> int:
        return len(self.onehot_features)

    @property
    def width(self) -> int:
        """Total column count F (numeric + one-hot)."""
        return self.n_numeric + self.n_onehot

    @property
    def columns(self) -> tuple[str, ...]:
        return self.numeric_features + self.onehot_features

    def numeric_index(self, name: str) -> int:
        try:
            return self._numeric_index[name]
        except KeyError:
            raise SchemaError(f"unknown numeric feature {name!r}") from None

    @property
    def uas_index(self) -> int:
        return self.numeric_index(UAS)

    @property
    def hccs_index(self) -> int:
        return self.numeric_index(HCCS)

    @property
    def indicator_indices(self) -> tuple[int, ...]:
        return tuple(self.numeric_index(n) for n in self.protocol_indicators)

    def onehot_index(self, facility: str) -> int:
        """Column index of a facility's one-hot flag within the full width."""
        try:
            return self.n_numeric + self.onehot_features.index(facility)
        except ValueError:
            raise SchemaError(f"unknown facility {facility!r}") from None

    def to_dict(self) -> dict:
        return {
            "numeric_features": list(self.numeric_features),
            "onehot_features": list(self.onehot_features),
            "protocol_indicators": list(self.protocol_indicators),
            "uas_name": UAS,
            "hccs_name": HCCS,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSchema":
        """The schema that :meth:`to_dict` wrote; :class:`SchemaError` for
        label-source names other than ``UAS`` and ``HCCS``."""
        for key, name in (("uas_name", UAS), ("hccs_name", HCCS)):
            if d.get(key, name) != name:
                raise SchemaError(f"{key} must be {name!r}, not {d[key]!r}")
        return cls(
            numeric_features=tuple(d["numeric_features"]),
            onehot_features=tuple(d["onehot_features"]),
            protocol_indicators=tuple(d.get("protocol_indicators", ())),
        )
