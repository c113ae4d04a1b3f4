"""The quivers, words and group representations that a verify reads.

Both group algebras in play are special biserial in characteristic 2:
after factoring out the socle they become path algebras with every
length-two path equal to zero, and the nonprojective indecomposables
are exactly the string and band modules of those quivers.

The Klein four algebra lives on a one-vertex quiver with two loops A
and B, related to the group by sigma = 1 + A and tau = 1 + B.

The A4 algebra lives on a three-vertex quiver, one vertex per
eigenvalue of rho.  The gamma arrows raise the vertex index by one and
the delta arrows lower it.  A word's constructor refuses every path in
the ideal.  The canonical word of each string label is the one record
of which vertices hold its top and radical: ``zoo`` builds the label
models from them, and the oracle's vertex profile reads them back.
``GroupRep`` holds the generator matrices of a representation and
``validate_group_rep`` checks the group relations on them.

The label models, band words and the catalogue that `a4diff zoo` lists
live in ``zoo``, which no verify imports.  With no cached bytecode, a
verify compiles every module it imports, and this one is compiled after
numpy is loaded, so its compile sets the run's peak memory.  On a 2-core
x86 machine, compiling the 693 lines it had with the catalogue took a
process holding numpy to 2.06 MB above numpy's peak, against 1.37 MB for
this module alone; the genus-234 verify peaked at 32.25 MB with the
catalogue and at 31.77 MB without it.
"""

from ._linalg import Matrix
from .ramification import INF


# ---------------------------------------------------------------------------
# quivers and words

def fwd(name):
    """A direct letter."""
    return (name, True)


def rev(name):
    """A formal inverse letter."""
    return (name, False)


def parse_letters(text):
    """Letters from a space-separated word, "~" marking inverses."""
    out = []
    for tok in text.split():
        if tok.startswith("~"):
            out.append(rev(tok[1:]))
        else:
            out.append(fwd(tok))
    return tuple(out)


class Quiver:
    """A finite quiver whose ideal is generated by all length-two paths.

    That convention covers every algebra handled here, so relations are
    implicit: a word is ideal-free iff no two adjacent letters point the
    same way.
    """

    __slots__ = ("name", "vertices", "arrows")

    def __init__(self, name, vertices, arrows):
        self.name = name
        self.vertices = tuple(vertices)
        self.arrows = dict(arrows)

    def src(self, name):
        return self.arrows[name][0]

    def dst(self, name):
        return self.arrows[name][1]

    def letter_source(self, letter):
        name, direct = letter
        return self.src(name) if direct else self.dst(name)

    def letter_end(self, letter):
        name, direct = letter
        return self.dst(name) if direct else self.src(name)

    def __repr__(self):
        return f"Quiver({self.name})"


KLEIN_AB = Quiver("klein_ab", (0,), {"A": (0, 0), "B": (0, 0)})

# gamma arrows raise the vertex index mod 3, delta arrows lower it.
A4_QUIVER = Quiver("a4", (0, 1, 2), {
    "g10": (0, 1), "g21": (1, 2), "g02": (2, 0),
    "d01": (1, 0), "d12": (2, 1), "d20": (0, 2),
})


def _letter_str(letter):
    name, direct = letter
    return name if direct else "~" + name


def _check_pair(quiver, left, right, what, pos):
    """Shared adjacency rules for string and band words."""
    if quiver.letter_source(left) != quiver.letter_end(right):
        raise ValueError(
            f"{what}: letters {pos} and {pos + 1} do not compose")
    if left[0] == right[0] and left[1] != right[1]:
        raise ValueError(f"{what}: immediate inverse at position {pos}")
    if left[1] == right[1]:
        # two direct letters form a path of w, two inverse letters one
        # of w^-1; either way it is a relation.
        raise ValueError(
            f"{what}: path {_letter_str(left)}.{_letter_str(right)} "
            "lies in the ideal")


class StringWord:
    """A reduced ideal-free walk, possibly empty (a vertex)."""

    __slots__ = ("quiver", "letters", "base_vertex")

    def __init__(self, quiver, letters, base_vertex=None):
        if isinstance(letters, str):
            letters = parse_letters(letters)
        letters = tuple(letters)
        for name, _ in letters:
            if name not in quiver.arrows:
                raise ValueError(f"invalid string: unknown arrow {name!r}")
        if not letters:
            if base_vertex not in quiver.vertices:
                raise ValueError("invalid string: empty word needs a vertex")
        else:
            base_vertex = None
        for i in range(len(letters) - 1):
            _check_pair(quiver, letters[i], letters[i + 1],
                        "invalid string", i + 1)
        self.quiver = quiver
        self.letters = letters
        self.base_vertex = base_vertex

    def __len__(self):
        return len(self.letters)

    def basis_vertex(self, j):
        """Vertex of basis vector b_{j+1}, 0-indexed j in 0..len."""
        if not self.letters:
            return self.base_vertex
        if j < len(self.letters):
            return self.quiver.letter_end(self.letters[j])
        return self.quiver.letter_source(self.letters[-1])

    def __repr__(self):
        if not self.letters:
            return f"StringWord(e_{self.base_vertex})"
        return "StringWord(%s)" % " ".join(map(_letter_str, self.letters))


# ---------------------------------------------------------------------------
# group representations

class GroupRep:
    """Matrices of the group generators, acting on column vectors.

    group is "H" (generators sigma, tau) or "G" (sigma, tau, rho).  It
    holds the matrices only: validate_group_rep checks them on each call.
    """

    __slots__ = ("group", "spec", "sigma", "tau", "rho")

    def __init__(self, group, spec, sigma, tau, rho=None):
        assert group in ("H", "G")
        assert (rho is None) == (group == "H")
        self.group = group
        self.spec = spec
        self.sigma = sigma
        self.tau = tau
        self.rho = rho

    @property
    def dim(self):
        return self.sigma.rows

    def generators(self):
        out = {"sigma": self.sigma, "tau": self.tau}
        if self.rho is not None:
            out["rho"] = self.rho
        return out

    def to_json(self):
        out = {"group": self.group, "dim": self.dim,
               "sigma": self.sigma.to_mask_rows(),
               "tau": self.tau.to_mask_rows()}
        if self.rho is not None:
            out["rho"] = self.rho.to_mask_rows()
        return out

    def __repr__(self):
        return f"GroupRep({self.group}, dim={self.dim})"


def validate_group_rep(rep):
    """Check the defining relations, naming the first one that fails.  Over G
    they are the presentation <s, r | s^2 = r^3 = (sr)^3 = 1> of A4
    (Coxeter and Moser) and rho sigma rho^-1 = tau, which imply tau^2 = 1
    and sigma tau = tau sigma: 8 products, and 4 over H."""
    def check(holds, name):
        if not holds:
            raise ValueError(f"relation violation: {name}")

    I = Matrix.identity(rep.spec, rep.dim)
    s, t = rep.sigma, rep.tau
    check(s @ s == I, "sigma^2 != 1")
    if rep.group == "H":
        check(t @ t == I, "tau^2 != 1")
        check(s @ t == t @ s, "sigma tau != tau sigma")
    else:
        r = rep.rho
        rr = r @ r
        check(rr @ r == I, "rho^3 != 1")
        check(r @ s @ rr == t, "rho sigma rho^-1 != tau")
        sr = s @ r
        check(sr @ sr @ sr == I, "(sigma rho)^3 != 1")


def restrict_to_h(grep):
    """Forget rho: the H-representation on the same sigma and tau."""
    assert grep.group == "G"
    return GroupRep("H", grep.spec, grep.sigma, grep.tau)


# ---------------------------------------------------------------------------
# canonical words for the labels
#
# The words are the one record of which vertices hold a label's top and
# radical: the models are built from them, and the oracle's vertex
# profile reads them back.

_DELTA = ("d01", "d12", "d20")   # _DELTA[p] lowers p+1 -> p
_GAMMA = ("g02", "g10", "g21")   # _GAMMA[p] raises p-1 -> p


def _a4_zigzag(i, count, step, even, odd):
    """count letters even(v), odd(v), even(v + step), odd(v + step), ...
    from v = i, vertex indices mod 3."""
    return tuple((odd if t % 2 else even)((i + step * (t // 2)) % 3)
                 for t in range(count))


def kh_label_word(label):
    """The walk of a Klein four label; None when it is a band."""
    if label.kind == "Triv":
        return StringWord(KLEIN_AB, (), base_vertex=0)
    if label.kind == "String":
        n = (label.dim - 1) // 2
        letters = ((rev("B"), fwd("A")) * n if label.x == 1
                   else (fwd("A"), rev("B")) * n)
        return StringWord(KLEIN_AB, letters)
    n = label.dim // 2
    if label.param is INF:
        letters = (rev("B"), fwd("A")) * (n - 1) + (rev("B"),)
    elif not label.param:
        letters = (rev("A"), fwd("B")) * (n - 1) + (rev("A"),)
    else:
        return None
    return StringWord(KLEIN_AB, letters)


def kg_label_word(label):
    """The walk of an A4 label; None when it is a band."""
    if label.kind == "Simple":
        return StringWord(A4_QUIVER, (), base_vertex=label.i)
    if label.kind == "Band":
        return None
    count = label.dim - 1
    if label.kind == "OddString" and label.x == 2:
        # gamma delta^-1 gamma delta^-1 ... starting at vertex i
        letters = _a4_zigzag(label.i, count, 1, lambda v: fwd(_GAMMA[v]),
                             lambda v: rev(_DELTA[(v + 1) % 3]))
    elif label.kind == "EvenString" and label.param is not INF:
        # gamma^-1 delta gamma^-1 delta ... descending from vertex i
        letters = _a4_zigzag(label.i, count, -1, lambda v: rev(_GAMMA[v]),
                             lambda v: fwd(_DELTA[v]))
    else:
        # delta^-1 gamma delta^-1 gamma ... starting at vertex i
        letters = _a4_zigzag(label.i, count, 1, lambda v: rev(_DELTA[v]),
                             lambda v: fwd(_GAMMA[v]))
    return StringWord(A4_QUIVER, letters)
