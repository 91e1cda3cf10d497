"""Model files: JSON serialization of a Markov source plus a one-block map.

Schema (one JSON object):

    {
      "alphabet":   ["a", "b", ...],          source symbols, distinct strings
      "incidence":  [[0, 1, ...], ...],       0/1 square matrix (numbers, not booleans)
      "transition": [[0.0, 0.5, ...], ...],   stochastic, supported on incidence
      "projection": {"a": "x", "b": "x", ...} every source label -> target label
      "options":    {...}                     optional, free-form parameters
    }

The target alphabet is implied by the projection, ordered by first use along
the source alphabet.  Construction parameters recorded under "options" are
validated when they are recognized (currently "gamma").
"""

from __future__ import annotations

import itertools
import json
from typing import Optional

import numpy as np

from .errors import ModelError
from .markov import MarkovModel
from .projection import FactorSystem, Projection, build_factor_system
from .tmc import Alphabet, Tmc

EXAMPLES = ("adhoc5", "fullshift4", "nongibbs6", "converse_false")

GAMMA_DEFAULT = 0.3
GAMMA_LO = 0.25
GAMMA_HI = 1.0 / 3.0


def _check_gamma(gamma) -> float:
    try:
        gamma = float(gamma)
    except (TypeError, ValueError):
        raise ModelError(f"gamma must be a number, got {gamma!r}") from None
    if not (GAMMA_LO < gamma < GAMMA_HI):
        raise ModelError(
            f"gamma must lie strictly between 1/4 and 1/3, got {gamma!r}"
        )
    return gamma


def expand_example(example_id: str, gamma: Optional[float] = None) -> dict:
    """Document for a built-in example system.

    adhoc5: five source symbols over a sparse graph, three-symbol image,
    generic transition rows.  The image satisfies the positivity needed for
    certification only at orbit level, which exercises the window search.

    fullshift4: full shift on four symbols with an asymmetric transition,
    two-symbol image with two-element fibers; all certification hypotheses
    hold pointwise and the finite-range obstruction triple is all-false.

    nongibbs6: six symbols, doubly stochastic transition with parameter
    gamma in (1/4, 1/3), two-symbol image.  The induced potential diverges
    along the all-zeros tail, the standard non-Gibbs specimen.  The only
    example with a parameter: gamma for another is refused (ModelError).

    converse_false: four symbols, two-symbol image, fiber blocks with
    all-zero rows; the image is nevertheless a full shift to any inspected
    depth, showing the row condition is not necessary for a Markov image.
    """
    if gamma is not None and example_id in EXAMPLES and example_id != "nongibbs6":
        raise ModelError(f"gamma is a parameter of nongibbs6 only, not of {example_id}")
    if example_id == "adhoc5":
        labels = ["1", "2", "3", "4", "5"]
        edges = {
            "1": ["2", "3", "4"],
            "2": ["1", "5"],
            "3": ["4"],
            "4": ["1", "5"],
            "5": ["2", "3", "4"],
        }
        incidence = [
            [1 if b in edges[a] else 0 for b in labels] for a in labels
        ]
        # generic edge weights: uniform rows would make every fiber block
        # rank one and the image measure exactly Markov
        weights = {
            "1": [0.5, 0.2, 0.3],
            "2": [0.6, 0.4],
            "3": [1.0],
            "4": [0.3, 0.7],
            "5": [0.25, 0.45, 0.3],
        }
        transition = [
            [
                weights[a][edges[a].index(b)] if b in edges[a] else 0.0
                for b in labels
            ]
            for a in labels
        ]
        projection = {"1": "a", "5": "a", "2": "b", "4": "b", "3": "c"}
        return {
            "alphabet": labels,
            "incidence": incidence,
            "transition": transition,
            "projection": projection,
        }
    if example_id == "fullshift4":
        labels = ["a", "b", "c", "d"]
        transition = [
            [0.40, 0.30, 0.20, 0.10],
            [0.10, 0.20, 0.30, 0.40],
            [0.30, 0.10, 0.40, 0.20],
            [0.20, 0.25, 0.15, 0.40],
        ]
        return {
            "alphabet": labels,
            "incidence": [[1] * 4 for _ in range(4)],
            "transition": transition,
            "projection": {"a": "0", "b": "0", "c": "1", "d": "1"},
        }
    if example_id == "nongibbs6":
        g = _check_gamma(GAMMA_DEFAULT if gamma is None else gamma)
        labels = ["a", "b", "c", "d", "e", "f"]
        #      a     b     c            d            e            f
        rows = [
            [0.0,  0.0,  2 * g,       g,           1 - 3 * g,   0.0],
            [0.0,  0.0,  g,           g,           0.0,         1 - 2 * g],
            [0.25, 0.25, 0.0,         0.0,         0.5,         0.0],
            [0.25, 0.25, 0.0,         0.0,         0.0,         0.5],
            [0.5,  0.0,  1 - 3 * g,   0.0,         3 * g - 0.5, 0.0],
            [0.0,  0.5,  0.0,         1 - 2 * g,   0.0,         2 * g - 0.5],
        ]
        incidence = [[1 if x > 0 else 0 for x in row] for row in rows]
        return {
            "alphabet": labels,
            "incidence": incidence,
            "transition": rows,
            "projection": {"a": "0", "b": "0", "c": "0", "d": "0", "e": "1", "f": "1"},
            "options": {"gamma": g},
        }
    if example_id == "converse_false":
        labels = ["a", "b", "c", "d"]
        edges = {"a": ["a", "b", "d"], "b": ["a", "b", "c"], "c": ["a"], "d": ["b"]}
        incidence = [
            [1 if b in edges[a] else 0 for b in labels] for a in labels
        ]
        transition = [
            [1.0 / len(edges[a]) if b in edges[a] else 0.0 for b in labels]
            for a in labels
        ]
        return {
            "alphabet": labels,
            "incidence": incidence,
            "transition": transition,
            "projection": {"a": "0", "c": "0", "b": "1", "d": "1"},
        }
    raise ModelError(f"unknown example {example_id!r}; choose from {EXAMPLES}")


def _numeric_matrix(key: str, entries) -> np.ndarray:
    """entries as a float array.  They are converted without a dtype, so that
    strings (dtype kind U) and null or integers beyond 64 bits (kind O) are
    refused: a float dtype would read "0.5" as a number and overflow on
    10**400."""
    try:
        matrix = np.asarray(entries)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"matrices must be numeric arrays: {exc}") from exc
    if matrix.dtype.kind not in "biuf":
        raise ModelError(f"{key} entries must be JSON numbers, with integers of at most 64 bits")
    return matrix.astype(float)


def parse_model(doc: dict) -> FactorSystem:
    """Validate a model document and build the factor system."""
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    for key in ("alphabet", "incidence", "transition", "projection"):
        if key not in doc:
            raise ModelError(f"model document is missing {key!r}")
    labels = doc["alphabet"]
    if (
        not isinstance(labels, list)
        or not labels
        or not all(isinstance(x, str) for x in labels)
    ):
        raise ModelError("alphabet must be a nonempty list of strings")
    alphabet = Alphabet(labels)
    incidence, transition = (_numeric_matrix(key, doc[key]) for key in ("incidence", "transition"))
    # JSON true and false would otherwise read as 1.0 and 0.0, so only a
    # matrix holding a 0 or a 1 is scanned; one that is not two-dimensional
    # is refused below
    for key, matrix in (("incidence", incidence), ("transition", transition)):
        unit = (matrix == 0.0) | (matrix == 1.0)
        if matrix.ndim == 2 and unit.any() and bool in set(map(type, itertools.chain.from_iterable(doc[key]))):
            raise ModelError(f"{key} entries must be numbers, not true or false")
    tmc = Tmc(alphabet, incidence)
    model = MarkovModel(tmc, transition)
    mapping = doc["projection"]
    if not isinstance(mapping, dict):
        raise ModelError("projection must map source labels to target labels")
    projection = Projection.from_labels(tmc.alphabet, mapping)
    options = doc.get("options") or {}
    if not isinstance(options, dict):
        raise ModelError("options must be an object")
    if "gamma" in options:
        _check_gamma(options["gamma"])
    return build_factor_system(model, projection)


def load_model(path: str) -> FactorSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file {path!r} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ModelError(f"model file {path!r} nests too deeply to read") from None
    return parse_model(doc)


def dump_document(doc: dict, path: Optional[str] = None) -> str:
    """Serialize a model document deterministically; write it when path given."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def example_system(example_id: str, gamma: Optional[float] = None) -> FactorSystem:
    return parse_model(expand_example(example_id, gamma=gamma))
