"""One-block factor maps and the induced measure on the image shift.

A projection collapses the source alphabet onto a strictly smaller target
alphabet.  Pushing a stationary Markov measure through it produces a hidden
Markov measure: cylinder weights are computed by sandwiching products of
weighted fiber matrices between a row of ones and the marginal vector of the
last symbol.  backward_transfer evaluates that formula for one word:
cylinder weights and the finite-range approximant read it off that kernel.
backward_step is the same step on stacks of vectors, which
log_nu_cylinders takes over all words of one length.  padded_stack holds
the same blocks zero-padded to the widest fiber: evaluate_many steps
the rows of many points on it in lockstep, and psi_n at one point steps
its one row on it.  Where fibers differ in size, padded products may round
otherwise than backward_transfer in the last bits.  One table per system
holds each word's product, exponent and tau, formed once for check_h2, the
window search and the eigendata route.  The two hypotheses checked here
(row-allowability of every fiber block, and positivity of one-period
products over short cycles) are what later certify that this induced
measure admits a regular potential.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import AdmissibilityError, ModelError
from .markov import MarkovModel, cylinder_measure, derive_potential
from .projective import SimplexPoint, contraction_coefficients, is_row_allowable
from .tmc import (
    Alphabet,
    PeriodicPoint,
    Tmc,
    Word,
    enumerate_periodic,
    pattern_primitivity,
    word_symbols,
)

# default word length up to which check_topological_markov searches
MARKOV_SEARCH_DEPTH = 12
# the longest search it accepts: its stack and its table of witness-free
# states grow with the depth; `check --depth 50000` on converse_false takes
# 1.2 s with start-up on 2 vCPUs
MAX_MARKOV_SEARCH_DEPTH = 50_000


class Projection:
    """Onto map from source symbols to a strictly smaller target alphabet."""

    def __init__(self, source: Alphabet, target: Alphabet, mapping: Sequence[int]):
        mapping = tuple(int(m) for m in mapping)
        if len(mapping) != source.size:
            raise ModelError("projection must assign every source symbol")
        if any(not 0 <= m < target.size for m in mapping):
            raise ModelError("projection maps outside the target alphabet")
        if set(mapping) != set(range(target.size)):
            raise ModelError("projection must be onto the target alphabet")
        if not source.size > target.size:
            raise ModelError("source alphabet must be strictly larger than the target")
        if not target.size > 1:
            raise ModelError("target alphabet must have at least two symbols")
        self.source = source
        self.target = target
        self.mapping = mapping
        fibers: list[list[int]] = [[] for _ in range(target.size)]
        for a, b in enumerate(mapping):
            fibers[b].append(a)
        self.fibers = tuple(tuple(f) for f in fibers)

    @classmethod
    def from_labels(cls, source: Alphabet, label_map: dict) -> "Projection":
        """Build from {source label: target label}, which must name every
        source label and no other (all missing, then all unknown labels are
        listed); target labels are str()ed and ordered by first use, and
        must be nonempty and hold no '/' or ',', the separators of a printed
        point, so that every printed point reads back."""
        missing = [x for x in source.labels if x not in label_map]
        if missing:
            raise ModelError(f"projection misses source symbols {missing}")
        known = set(source.labels)
        extra = [x for x in label_map if x not in known]
        if extra:
            raise ModelError(f"projection names unknown source symbols {extra}")
        targets = [str(label_map[x]) for x in source.labels]
        labels = list(dict.fromkeys(targets))
        unreadable = [t for t in labels if not t or "/" in t or "," in t]
        if unreadable:
            raise ModelError(f"target labels must be nonempty and hold no '/' or ',': {unreadable}")
        target = Alphabet(labels)
        return cls(source, target, [target.index(t) for t in targets])

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{s}->{self.target.labels[m]}"
            for s, m in zip(self.source.labels, self.mapping)
        )
        return f"Projection({pairs})"


class FactorSystem:
    """Everything derived from (model, projection) that later stages consume.

    fiber_weight[(b, b')] is the block of the source incidence over
    fiber(b) x fiber(b') with each allowed entry replaced by
    exp(phi) = mu[a] P(a, a') / mu[a']; it exists exactly for the pairs
    allowed by the induced incidence.  fiber_marginal[b]
    restricts the stationary vector to fiber(b).  zero_row_blocks holds the
    pairs whose weight block has an all-zero row: no potential is defined
    along a point that takes such a step.
    """

    def __init__(self, model: MarkovModel, projection: Projection):
        if projection.source != model.tmc.alphabet:
            raise ModelError("projection source alphabet differs from the model's")
        self.model = model
        self.projection = projection
        phi = derive_potential(model).values
        m = model.tmc.incidence
        nb = projection.target.size
        induced = np.zeros((nb, nb), dtype=np.int8)
        self.fiber_weight: dict[tuple[int, int], np.ndarray] = {}
        for b in range(nb):
            for b2 in range(nb):
                ix = np.ix_(projection.fibers[b], projection.fibers[b2])
                block = m[ix]
                if block.any():
                    induced[b, b2] = 1
                    weight = np.where(block == 1, np.exp(phi[ix]), 0.0)
                    weight.flags.writeable = False
                    self.fiber_weight[(b, b2)] = weight
        self.zero_row_blocks = frozenset(
            key for key, w in self.fiber_weight.items() if not is_row_allowable(w)[0]
        )
        self.factor_tmc = Tmc(projection.target, induced)
        self.fiber_marginal = tuple(
            model.stationary[list(projection.fibers[b])] for b in range(nb)
        )
        # log_nu_cylinders(self, n) by depth n, taken once and shared by its readers
        self.cylinder_logs: dict[int, dict[tuple[int, ...], float]] = {}

    @cached_property
    def h1(self) -> "H1Report":
        """check_h1(self), taken once and shared by its readers."""
        return check_h1(self)

    @cached_property
    def h2(self) -> "H2Report":
        """check_h2(self), taken once and shared by its readers."""
        return check_h2(self)

    @property
    def target_size(self) -> int:
        return self.projection.target.size

    def weight(self, b: int, b2: int) -> np.ndarray:
        try:
            return self.fiber_weight[(b, b2)]
        except KeyError:
            raise AdmissibilityError(
                f"factor transition {self.projection.target.labels[b]!r} -> "
                f"{self.projection.target.labels[b2]!r} is not allowed"
            ) from None

    def marginal_hat(self, b: int) -> SimplexPoint:
        return SimplexPoint(self.fiber_marginal[b], fiber=b)

    def factor_word(self, labels: Sequence[str]) -> Word:
        return self.factor_tmc.word(labels)

    @cached_property
    def padded_stack(self) -> tuple:
        """(blocks, marginals, ones) for the backward and forward lockstep
        passes and their one-point routes, built on first use, each fiber
        vector zero-padded to the widest fiber's size S: W_{b0 b1} at the top
        left of blocks[b0, b1] (all zeros if b0 -> b1 is not allowed),
        fiber_marginal[b] in marginals[b], ones on fiber b in ones[b].
        Padded products round otherwise than unpadded ones in the last bits
        where fibers differ in size."""
        sizes = np.array([len(f) for f in self.projection.fibers])
        blocks = np.zeros((len(sizes), len(sizes), sizes.max(), sizes.max()))
        for (b0, b1), w in self.fiber_weight.items():
            blocks[b0, b1, : sizes[b0], : sizes[b1]] = w
        ones = (np.arange(sizes.max()) < sizes[:, None]).astype(float)
        marginals = np.zeros_like(ones)
        marginals[ones > 0] = np.concatenate(self.fiber_marginal)
        return blocks, marginals, ones

    @cached_property
    def cycle_table(self) -> "CycleTable":
        """The one memo of word products, kept as long as the system; its
        products start as the fiber weight blocks."""
        return CycleTable(dict(self.fiber_weight), {}, {})

    def word_product(self, symbols: Sequence[int]) -> np.ndarray:
        """Product of fiber weight matrices along a factor word (length >= 2),
        left to right, each prefix's formed once and kept read-only in
        cycle_table, whose readers call this only for a word it lacks."""
        products = self.cycle_table.products
        word = tuple(symbols)
        if (out := products.get(word)) is not None:
            return out
        out = products[word[:2]]
        for j in range(3, len(word) + 1):
            if (product := products.get(word[:j])) is None:
                product = products[word[:j]] = out @ products[word[j - 2 : j]]
                product.flags.writeable = False
            out = product
        return out

    def _kept_product(self, word: tuple[int, ...]) -> np.ndarray:
        product = self.cycle_table.products.get(word)  # word_product on a miss only
        return self.word_product(word) if product is None else product

    def word_exponent(self, word: tuple[int, ...]) -> Optional[int]:
        """pattern_primitivity(word_product(word)).exponent of a closed word,
        tested once per zero pattern: 1 exactly for a strictly positive
        product, None for a pattern that is not primitive."""
        pattern = self._kept_product(word) != 0
        key = (pattern.shape, pattern.tobytes())
        if key not in self.cycle_table.patterns:
            self.cycle_table.patterns[key] = pattern_primitivity(pattern).exponent
        return self.cycle_table.patterns[key]

    def word_taus(self, words: Sequence[tuple[int, ...]]) -> list[float]:
        """The Birkhoff coefficient tau of each word's product, formed once:
        the words the table lacks go through one contraction_coefficients
        stack per shape, whose bits do not depend on the rest of the stack."""
        taus = self.cycle_table.taus
        by_shape: dict[tuple, list] = {}
        for word in dict.fromkeys(w for w in words if w not in taus):
            by_shape.setdefault(self._kept_product(word).shape, []).append(word)
        for group in by_shape.values():
            coefficients = contraction_coefficients(np.stack([self._kept_product(w) for w in group]))
            taus.update((word, c.tau) for word, c in zip(group, coefficients))
        return [taus[w] for w in words]


class CycleTable(NamedTuple):
    """FactorSystem.cycle_table: read-only products by word, the exponent
    of a closed word's zero pattern by (shape, bytes), and taus by word."""

    products: dict[tuple[int, ...], np.ndarray]
    patterns: dict[tuple, Optional[int]]
    taus: dict[tuple[int, ...], float]


def build_factor_system(model: MarkovModel, projection: Projection) -> FactorSystem:
    return FactorSystem(model, projection)


class H1Report(NamedTuple):
    passed: bool
    # (b label, b' label, offending source row label)
    failures: tuple[tuple[str, str, str], ...]


def check_h1(fs: FactorSystem) -> H1Report:
    """Row-allowability of every fiber block allowed by the induced incidence:
    the all-zero rows of the weight blocks, as in fs.zero_row_blocks."""
    failures = []
    target = fs.projection.target.labels
    source = fs.projection.source.labels
    for (b, b2), block in sorted(fs.fiber_weight.items()):
        for r in np.flatnonzero(~(block > 0).any(axis=1)):
            failures.append((target[b], target[b2], source[fs.projection.fibers[b][r]]))
    return H1Report(passed=not failures, failures=tuple(failures))


class H2Witness(NamedTuple):
    point: PeriodicPoint
    product: np.ndarray
    positive: bool


class H2Report(NamedTuple):
    # orbit-level verdict: every cycle of period <= target size has at least
    # one rotation whose one-period product is strictly positive
    passed: bool
    # stricter flag: every rotation's own product is positive (positivity of
    # these products is genuinely phase dependent)
    pointwise: bool
    witnesses: tuple[H2Witness, ...]
    # canonical rotations of orbits with no positive rotation at all
    orbit_failures: tuple[tuple[str, ...], ...]
    warnings: tuple[str, ...] = ()


def check_h2(fs: FactorSystem) -> H2Report:
    """Positivity of one-period fiber products over all short periodic points.

    Checks every periodic point of the induced chain with period up to the
    target alphabet size.  The verdict is per orbit (some rotation positive);
    per-rotation products are all reported because later certification
    needs to know exactly which phases are usable.  Each witness holds its
    closed word's product and exponent from the cycle table.
    """
    primitive = pattern_primitivity(fs.factor_tmc.incidence).primitive
    warnings = () if primitive else ("induced incidence is not primitive",)
    witnesses = []
    orbits: dict[tuple[int, ...], bool] = {}
    for point in enumerate_periodic(fs.factor_tmc, fs.target_size):
        closed = point.symbols + point.symbols[:1]
        witnesses.append(H2Witness(point, fs.word_product(closed), fs.word_exponent(closed) == 1))
        key = point.canonical_rotation()
        orbits[key] = orbits.get(key, False) or witnesses[-1].positive
    labels = fs.projection.target.labels
    failures = tuple(tuple(labels[s] for s in key) for key, ok in sorted(orbits.items()) if not ok)
    return H2Report(not failures, all(w.positive for w in witnesses), tuple(witnesses), failures, warnings)


class TopologicalMarkovVerdict(NamedTuple):
    status: str  # markov_certified | markov_refuted | undecided_at_depth
    witness: Optional[Word]
    depth: int


def check_topological_markov(fs: FactorSystem, depth: int = MARKOV_SEARCH_DEPTH) -> TopologicalMarkovVerdict:
    """Is the image subshift exactly the chain of the induced incidence?

    Row-allowable fiber blocks force every finite word of the induced chain
    to lift, which settles the question.  Otherwise search words up to the
    given length for one with empty preimage (tracked by a reachable-fiber
    set); finding one refutes equality, exhausting the depth leaves it open.
    A depth below 1 or above MAX_MARKOV_SEARCH_DEPTH is refused.
    A state (last symbol, reach) that held no witness with some steps left
    is skipped when it comes back with no more, so the first witness in
    lexicographic order is found at a cost linear in the depth.
    """
    if depth < 1:
        raise ModelError(f"search depth must be >= 1, got {depth}")
    if depth > MAX_MARKOV_SEARCH_DEPTH:
        raise ModelError(f"search depth {depth} is above the cap MAX_MARKOV_SEARCH_DEPTH {MAX_MARKOV_SEARCH_DEPTH}")
    if not fs.zero_row_blocks:
        return TopologicalMarkovVerdict("markov_certified", None, depth)
    allows = fs.model.tmc.allows
    fibers = fs.projection.fibers
    successors = fs.factor_tmc.successors
    barren: dict = {}  # state -> the most steps left from which it held no witness
    # depth first on an explicit stack, so deep searches need no recursion:
    # one frame per symbol of the current word, with its untried successors
    frames: list = []

    def enter(b: int, reach: tuple, left: int) -> None:
        if left > 0 and barren.get((b, reach), 0) < left:
            frames.append(((b, reach), left, iter(successors(b))))

    for b in range(fs.target_size):
        enter(b, fibers[b], depth - 1)
        while frames:
            state, left, untried = frames[-1]
            b2 = next(untried, None)
            if b2 is None:
                barren[state] = frames.pop()[1]
                continue
            nxt = tuple(a2 for a2 in fibers[b2] if any(allows(a, a2) for a in state[1]))
            if not nxt:
                witness = Word(fs.factor_tmc, tuple(frame[0][0] for frame in frames) + (b2,))
                return TopologicalMarkovVerdict("markov_refuted", witness, depth)
            enter(b2, nxt, left - 1)
    return TopologicalMarkovVerdict("undecided_at_depth", None, depth)


def backward_transfer(fs: FactorSystem, symbols: Sequence[int]) -> tuple[float, float, np.ndarray]:
    """nu[b0..bn] = 1^T W_{b0 b1} ... W_{b(n-1) bn} mu(bn), evaluated backward.

    Starts from the fiber marginal of the last symbol and applies one fiber
    weight matrix per step, last transition first, to the l1-normalized
    previous image.  Returns (log_mass, scale, x): log_mass is log nu[w]
    (-inf, with scale 0, when the word has no preimage); x is the last image,
    on the fiber of b0, and scale = |x|_1, so x / scale is the final simplex
    vector and log(scale) = psi_n(w) for n = len(w) - 1.
    """
    x = fs.fiber_marginal[symbols[-1]]
    scale = x.sum()
    log_mass = math.log(scale)
    for i in range(len(symbols) - 2, -1, -1):
        x = fs.weight(symbols[i], symbols[i + 1]) @ (x / scale)
        scale = x.sum()
        if scale <= 0.0:
            return -math.inf, 0.0, x
        log_mass += math.log(scale)
    return log_mass, scale, x


def backward_step(fs: FactorSystem, rows: list) -> list:
    """One step of backward_transfer on rows[b], the vectors on fiber b, for
    _cylinder_pass: W_{b0 b1} takes all of rows[b1], so every word steps
    back to every admissible symbol, bit for bit as backward_transfer's
    W @ v.  Returns the new rows, stacked in fs.fiber_weight order."""
    parts: list[list[np.ndarray]] = [[] for _ in rows]
    for (b0, b1), w in fs.fiber_weight.items():
        parts[b0].append((w[None] @ rows[b1][:, :, None])[..., 0])
    return [np.concatenate(p) for p in parts]


def log_nu_cylinder(fs: FactorSystem, word) -> float:
    """log nu[w]; -inf when the word has no preimage (possible only when some
    fiber block has an all-zero row)."""
    return backward_transfer(fs, word_symbols(fs.factor_tmc, word))[0]


def log_nu_cylinders(fs: FactorSystem, max_length: int) -> dict[tuple[int, ...], float]:
    """log_nu_cylinder(fs, w) for every admissible word w of length 1 ..
    max_length, bit for bit, from one backward pass over suffixes
    (_cylinder_pass), taken once per system and depth: later calls return
    the same dict from fs.cylinder_logs, which its readers do not change."""
    if max_length not in fs.cylinder_logs:
        fs.cylinder_logs[max_length] = _cylinder_pass(fs, max_length)
    return fs.cylinder_logs[max_length]


def _cylinder_pass(fs: FactorSystem, max_length: int) -> dict[tuple[int, ...], float]:
    """The masses of log_nu_cylinders, from one backward pass over suffixes.

    The words of one length are the words one shorter extended on the left;
    backward_step takes the normalized images of all of them at once, and
    each word's log mass is its suffix's plus math.log of its new scale, the
    order in which backward_transfer adds them.  A word without preimage
    has scale 0 and log mass -inf, and so do its extensions.
    """
    words = [[(b,)] for b in range(fs.target_size)]
    logs = [[0.0] for _ in words]
    rows = [mu[None, :] for mu in fs.fiber_marginal]
    out: dict[tuple[int, ...], float] = {}
    for length in range(1, max_length + 1):
        for b, x in enumerate(rows):
            scale = x.sum(axis=1)
            logs[b] = [
                -math.inf if s <= 0.0 else log + math.log(s)
                for log, s in zip(logs[b], scale.tolist())
            ]
            out.update(zip(words[b], logs[b]))
            live = ~(scale <= 0.0)[:, None]
            rows[b] = np.divide(x, scale[:, None], out=np.zeros_like(x), where=live)
        if length == max_length:
            break
        rows = backward_step(fs, rows)
        suffixes, suffix_logs = words, logs
        words, logs = [[] for _ in rows], [[] for _ in rows]
        for b0, b1 in fs.fiber_weight:
            words[b0] += [(b0,) + w for w in suffixes[b1]]
            logs[b0] += suffix_logs[b1]
    return out


def nu_cylinder(fs: FactorSystem, word) -> float:
    """Induced measure of the cylinder of an admissible factor word."""
    return float(math.exp(log_nu_cylinder(fs, word)))


def preimage_words(fs: FactorSystem, word) -> list[Word]:
    """All admissible source words projecting letter-by-letter onto the word."""
    symbols = word_symbols(fs.factor_tmc, word)
    allows = fs.model.tmc.allows
    fibers = fs.projection.fibers
    found: list[Word] = []
    path: list[int] = []

    def extend(i: int):
        if i == len(symbols):
            found.append(Word(fs.model.tmc, tuple(path)))
            return
        for a in fibers[symbols[i]]:
            if path and not allows(path[-1], a):
                continue
            path.append(a)
            extend(i + 1)
            path.pop()

    extend(0)
    return found


def nu_preimage_sum(fs: FactorSystem, word) -> float:
    """Induced measure by brute-force enumeration of preimage cylinders.

    Independent oracle for nu_cylinder: sums exact source cylinder measures
    over every preimage word, with compensated summation.
    """
    return math.fsum(
        cylinder_measure(fs.model, u) for u in preimage_words(fs, word)
    )
