"""Domain model for microring resonance instances.

Every wavelength in this package is an integer number of picometres
(1 nm = 1000 pm).  Conflict detection and spacing checks are equality and
interval tests, so the whole pipeline runs on exact integer arithmetic;
there is no floating-point wavelength anywhere in the public API.

An instance is a table of ring radii, each with its ascending list of
resonance wavelengths.  Each resonance carries an uncertainty interval
[lmin, lmax] around its nominal value; how that interval is obtained is a
load-time policy (taken verbatim from the file, or recomputed as
nominal +/- half_width).

A radius entry is three int columns, the paper's flat
``lambda(R,Lmin,Lnom,Lmax)`` facts: ``nominals()``, ``lmins`` and
``lmaxs``, index-aligned and ascending by nominal.  The parser, the
generator and ``apply_delta`` build entries from columns, and the
formatters, the conflict sweep, the solvers, the checkers and the oracles
index them.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from operator import lt

PM_PER_NM = 1000

EXPLICIT_INTERVALS = "explicit-intervals"
SYMMETRIC_HALF_WIDTH = "symmetric-half-width"


class ModelError(Exception):
    """Invalid instance data."""


class ParseError(ModelError):
    """Malformed instance file; message carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class DeltaPolicy:
    """How per-resonance uncertainty intervals are obtained at load time.

    In ``explicit-intervals`` mode the file's intervals are kept and
    ``half_width`` must be 0.  In ``symmetric-half-width`` mode any
    intervals present in the file are ignored and recomputed as
    nominal -/+ ``half_width``.  Note that under this policy two
    resonances conflict when their nominals are at most
    ``2 * half_width`` apart (both intervals widen).
    """

    mode: str = EXPLICIT_INTERVALS
    half_width: int = 0

    def __post_init__(self):
        if self.mode not in (EXPLICIT_INTERVALS, SYMMETRIC_HALF_WIDTH):
            raise ModelError(f"unknown delta policy mode {self.mode!r}")
        if self.half_width < 0:
            raise ModelError("half_width must be >= 0")
        if self.mode == EXPLICIT_INTERVALS and self.half_width != 0:
            raise ModelError("explicit-intervals takes no half_width")

    @classmethod
    def explicit(cls) -> "DeltaPolicy":
        return cls(EXPLICIT_INTERVALS, 0)

    @classmethod
    def symmetric(cls, half_width_pm: int) -> "DeltaPolicy":
        return cls(SYMMETRIC_HALF_WIDTH, half_width_pm)


class RadiusEntry:
    """A ring radius and its resonances as three index-aligned int columns.

    ``nominals()``, ``lmins`` and ``lmaxs`` hold one value per resonance,
    ascending by nominal (``validate`` checks the order).  Entries are
    immutable and compare and hash by value.
    """

    __slots__ = ("id", "radius_pm", "_nominals", "lmins", "lmaxs")

    def __init__(self, id: int, radius_pm: int, nominals, lmins, lmaxs):
        nominals, lmins, lmaxs = tuple(nominals), tuple(lmins), tuple(lmaxs)
        if not len(nominals) == len(lmins) == len(lmaxs):
            raise ModelError(f"radius {id}: columns differ in length")
        set_ = object.__setattr__
        set_(self, "id", id)
        set_(self, "radius_pm", radius_pm)
        set_(self, "_nominals", nominals)
        set_(self, "lmins", lmins)
        set_(self, "lmaxs", lmaxs)

    def nominals(self) -> tuple[int, ...]:
        return self._nominals

    @property
    def resonances(self) -> tuple[tuple[int, int, int], ...]:
        """``(nominal, lmin, lmax)`` per resonance; the bench tracer's count
        is its only reader."""
        return tuple(zip(self._nominals, self.lmins, self.lmaxs))

    def _key(self) -> tuple:
        return (self.id, self.radius_pm, self._nominals, self.lmins, self.lmaxs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"RadiusEntry(id={self.id!r}, radius_pm={self.radius_pm!r}, "
                f"nominals={self._nominals!r}, lmins={self.lmins!r}, lmaxs={self.lmaxs!r})")

    def __reduce__(self):
        return (RadiusEntry, self._key())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass(frozen=True)
class Instance:
    """A full radius/resonance table plus a free-text label."""

    radii: tuple[RadiusEntry, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(self.radii))

    def ids(self) -> tuple[int, ...]:
        return tuple(e.id for e in self.radii)

    @cached_property
    def _by_id(self) -> dict[int, RadiusEntry]:
        """Each id's entry, the first of duplicates, built on first use."""
        return {e.id: e for e in reversed(self.radii)}

    def entry(self, radius_id: int) -> RadiusEntry:
        try:
            return self._by_id[radius_id]
        except KeyError:
            raise KeyError(f"no radius with id {radius_id}") from None

    def all_nominals(self) -> list[int]:
        return [n for e in self.radii for n in e.nominals()]

    @cached_property
    def _text(self) -> str:
        """The canonical text, formatted on first use.  ``parse_instance``
        seeds it with the file's own text when that text is canonical."""
        return _format(self)


def validate(instance: Instance) -> list[str]:
    """Check every structural invariant; return one message per violation.

    Violations are data, not exceptions: an empty list means the instance
    is well formed.  ``parse_instance`` refuses to return an instance
    with violations.
    """
    violations: list[str] = []
    if not instance.radii:
        violations.append("no radii")
        return violations
    seen_ids: set[int] = set()
    for entry in instance.radii:
        if entry.id < 1:
            violations.append(f"radius {entry.id}: id must be positive")
        if entry.id in seen_ids:
            violations.append(f"duplicate radius id {entry.id}")
        seen_ids.add(entry.id)
        if entry.radius_pm < 0:
            violations.append(f"radius {entry.id}: negative radius_pm")
        nominals = entry.nominals()
        if not nominals:
            violations.append(f"radius {entry.id}: no resonances")
            continue
        prev = 0
        for k, (nom, lo, hi) in enumerate(zip(nominals, entry.lmins, entry.lmaxs)):
            if 0 < lo <= nom <= hi and prev < nom:
                prev = nom
                continue
            if lo <= 0:
                violations.append(
                    f"radius {entry.id}, resonance {k}: non-positive wavelength"
                )
            if not (lo <= nom <= hi):
                violations.append(
                    f"radius {entry.id}, resonance {k}: "
                    "interval violates lmin <= nominal <= lmax"
                )
            if k and nom <= prev:
                violations.append(
                    f"radius {entry.id}: resonances not strictly "
                    f"ascending at index {k}"
                )
            prev = nom
    return violations


def apply_delta(instance: Instance, half_width_pm: int) -> Instance:
    """Return a copy with all intervals recomputed as nominal -/+ half width."""
    if half_width_pm < 0:
        raise ModelError("half_width must be >= 0")
    radii = []
    for e in instance.radii:
        noms = e.nominals()
        radii.append(RadiusEntry(
            e.id,
            e.radius_pm,
            noms,
            tuple(n - half_width_pm for n in noms),
            tuple(n + half_width_pm for n in noms),
        ))
    return Instance(tuple(radii), instance.label)


# ---------------------------------------------------------------------------
# File formats.
#
# Canonical format (UTF-8, line oriented):
#   # comment                      ('# label: <text>' restores the label)
#   radius <id> <radius_pm>
#   resonance <radius_id> <nominal_pm> [<lmin_pm> <lmax_pm>]
#
# ASP fact format:
#   lambda(R,Lmin,Lnom,Lmax).
#   % comment                      ('% label: <text>' / '% radius <id> <pm>'
#                                   restore metadata our exporter embeds)
#
# Both line families are accepted by the same parser.  Foreign fact files
# without metadata comments parse with radius_pm = 0.
# ---------------------------------------------------------------------------

_LAMBDA_RE = re.compile(
    r"^lambda\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*\.$"
)


def parse_instance(text: str | bytes, policy: DeltaPolicy | None = None) -> Instance:
    """Parse canonical or ASP-fact instance text into a validated Instance.

    A text that is already canonical with point intervals (what
    ``generate`` writes) is read block by block; any other text, and any
    canonical text that fails a check, goes to the line parser, so every
    error it reports is the line parser's.  Resonances are normalised
    ascending by nominal and radii ascending by id.  Under a symmetric
    policy, intervals in the file are discarded and recomputed from the
    policy half width.
    """
    if policy is None:
        policy = DeltaPolicy.explicit()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    half_width = policy.half_width if policy.mode == SYMMETRIC_HALF_WIDTH else None
    instance = _parse_canonical(text, half_width)
    if instance is None:
        return _parse_lines(text, half_width)
    if half_width is None:
        # The text is format_instance's output for this very instance.
        object.__setattr__(instance, "_text", text)
    return instance


def _parse_canonical(text: str, half_width: int | None) -> Instance | None:
    """The instance of a canonical text with point intervals, or None.

    The text is split once on ``"radius "``.  A radius block is accepted
    only if formatting what was read from it gives back the block byte
    for byte, and the same holds for the ``# label:`` head; that rules
    out every spelling the line parser would read differently (leading
    zeros, signs, ``_``, other whitespace, CRLF, a missing final
    newline).  The checks are ``validate``'s: ids and nominals strictly
    ascending, ids and wavelengths positive, ``radius_pm`` not negative,
    at least one resonance per radius.
    """
    if not text.startswith(("radius ", "# label: ")):  # ASP facts, comments
        return None
    head, *blocks = text.split("radius ")
    label = head[len("# label: "):-1]
    if not blocks or head and (head != f"# label: {label}\n"
                               or label.splitlines() != [label] or label != label.strip()):
        return None
    shift = half_width or 0
    radii = []
    last = 0
    try:
        for block in blocks:
            fields = block.split()
            rid, pm = int(fields[0]), int(fields[1])
            noms = list(map(int, fields[4::3]))
            if not (last < rid and pm >= 0 and noms and noms[0] > shift
                    and all(map(lt, noms, noms[1:]))
                    and block == f"{rid} {pm}\n{_point_lines(rid, noms)}\n"):
                return None
            last = rid
            nominals = tuple(noms)
            if half_width is None:
                lmins = lmaxs = nominals
            else:
                lmins = tuple([n - half_width for n in noms])
                lmaxs = tuple([n + half_width for n in noms])
            radii.append(RadiusEntry(rid, pm, nominals, lmins, lmaxs))
    except (ValueError, IndexError):
        return None
    return Instance(tuple(radii), label)


def _parse_lines(text: str, half_width: int | None) -> Instance:
    """The line parser: any canonical or ASP-fact text.

    One pass over the lines: each is split once and dispatched on its
    first field, canonical ``resonance`` lines first.  Only the other
    lines (comments and ``lambda`` facts) are stripped and matched
    further.
    """
    label = ""
    radius_pm: dict[int, int] = {}
    declared: set[int] = set()
    # Per radius, nominal -> (lmin, lmax); each radius is sorted once at the
    # end and becomes three columns.
    spectra: dict[int, dict[int, tuple[int, int]]] = {}

    def declare(rid: int, pm: int, line_no: int) -> None:
        if rid in declared:
            raise ParseError(f"duplicate radius id {rid}", line_no)
        declared.add(rid)
        if rid not in spectra:
            spectra[rid] = {}
            radius_pm[rid] = pm
        elif pm:
            radius_pm[rid] = pm

    for line_no, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        head = fields[0]
        if head == "resonance":
            n = len(fields)
            if n != 3 and n != 5:
                raise ParseError(
                    "resonance line needs: resonance <radius_id> <nominal_pm> "
                    "[<lmin_pm> <lmax_pm>]",
                    line_no,
                )
            try:
                rid, nom = int(fields[1]), int(fields[2])
                lo, hi = (int(fields[3]), int(fields[4])) if n == 5 else (nom, nom)
            except ValueError:
                raise ParseError("resonance arguments must be integers", line_no) from None
            spectrum = spectra.get(rid)
            if spectrum is None:
                raise ParseError(f"resonance references unknown radius id {rid}", line_no)
        elif head == "radius":
            if len(fields) != 3:
                raise ParseError("radius line needs: radius <id> <radius_pm>", line_no)
            try:
                rid, pm = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("radius arguments must be integers", line_no) from None
            declare(rid, pm, line_no)
            continue
        elif head[0] in "#%":
            body = line.strip()[1:].strip()
            if body.startswith("label:"):
                label = body[len("label:"):].strip()
            elif head[0] == "%":
                # Metadata our ASP exporter embeds; '#' comments stay inert.
                meta = body.split()
                if len(meta) == 3 and meta[0] == "radius":
                    try:
                        rid, pm = int(meta[1]), int(meta[2])
                    except ValueError:
                        continue  # free-form comment that merely starts with "radius"
                    declare(rid, pm, line_no)
            continue
        else:
            stripped = line.strip()
            m = _LAMBDA_RE.match(stripped)
            if m is None:
                raise ParseError(f"unrecognized line: {stripped!r}", line_no)
            rid, lo, nom, hi = (int(g) for g in m.groups())
            spectrum = spectra.get(rid)
            if spectrum is None:
                spectrum = spectra[rid] = {}
                radius_pm[rid] = 0
        # A canonical resonance or a lambda fact: the per-resonance checks.
        if nom in spectrum:
            raise ParseError(
                f"duplicate nominal wavelength {nom} for radius {rid}", line_no
            )
        if half_width is not None:
            lo, hi = nom - half_width, nom + half_width
        elif not lo <= nom <= hi:
            raise ParseError(
                f"radius {rid}: interval violates lmin <= nominal <= lmax", line_no
            )
        spectrum[nom] = (lo, hi)

    radii = []
    for rid, spectrum in sorted(spectra.items()):
        noms = tuple(sorted(spectrum))
        # zip's argument tuple comes from a list at its exact size; from an
        # iterator it is resized, and each request then parks one tuple per
        # radius in CPython's free lists until a full collection.
        lmins, lmaxs = zip(*[spectrum[n] for n in noms]) if noms else ((), ())
        radii.append(RadiusEntry(rid, radius_pm[rid], noms, lmins, lmaxs))
    instance = Instance(tuple(radii), label)
    violations = validate(instance)
    if violations:
        raise ModelError("; ".join(violations))
    return instance


def export_asp_facts(instance: Instance) -> str:
    """Render an instance as ASP facts, one ``lambda/4`` fact per resonance.

    Radii are emitted in ascending id order, resonances ascending by
    nominal.  Label and physical radii travel in ``%`` comments so that
    re-parsing the export reproduces the instance exactly.
    """
    lines: list[str] = []
    if instance.label:
        lines.append(f"% label: {instance.label}")
    entries = sorted(instance.radii, key=lambda e: e.id)
    for e in entries:
        if e.radius_pm:
            lines.append(f"% radius {e.id} {e.radius_pm}")
    for e in entries:
        for nom, lo, hi in zip(e.nominals(), e.lmins, e.lmaxs):
            lines.append(f"lambda({e.id},{lo},{nom},{hi}).")
    return "\n".join(lines) + "\n"


def format_instance(instance: Instance) -> str:
    """Render an instance in the canonical line-oriented format.

    The text is kept on the instance, so later calls return it as is.
    """
    return instance._text


def _format(instance: Instance) -> str:
    lines: list[str] = []
    if instance.label:
        lines.append(f"# label: {instance.label}")
    for e in sorted(instance.radii, key=lambda x: x.id):
        lines.append(f"radius {e.id} {e.radius_pm}")
        noms = e.nominals()
        if noms and e.lmins == noms == e.lmaxs:
            lines.append(_point_lines(e.id, noms))
            continue
        for nom, lo, hi in zip(noms, e.lmins, e.lmaxs):
            if lo == nom == hi:
                lines.append(f"resonance {e.id} {nom}")
            else:
                lines.append(f"resonance {e.id} {nom} {lo} {hi}")
    return "\n".join(lines) + "\n"


def _point_lines(rid: int, nominals) -> str:
    """The canonical lines of point resonances, without the last newline."""
    head = f"resonance {rid} "
    return head + f"\n{head}".join(map(str, nominals))


def instance_digest(instance: Instance) -> str:
    """Content hash of the canonical serialization (sha256 hex).

    For an instance parsed from a canonical file under the explicit
    policy, that serialization is the file's own text.
    """
    return hashlib.sha256(format_instance(instance).encode("utf-8")).hexdigest()


def pm_to_nm_text(pm: int) -> str:
    """Human-readable nm rendering of a pm value, exact (no floats)."""
    whole, frac = divmod(pm, PM_PER_NM)
    return f"{whole}.{frac:03d}".rstrip("0").rstrip(".") if frac else str(whole)
