"""Canonical JSON forms: partitions as integer arrays, coefficients as
canonical polynomial text, terms in the global partition order.

term_list reaches that order (partitions.sort_key: size ascending,
reverse-lex within a size) with two C-level sorts and no Python key: a
reverse sort of the tuples, then a stable sort by size.  Two distinct
partitions of one size differ at some first part, so the tuple order
within a size is exactly reverse-lex.
"""

import json

from .partitions import sort_key


def term_list(terms):
    keys = sorted(terms, reverse=True)
    keys.sort(key=sum)
    return [{"partition": list(la), "coeff": terms[la].text()} for la in keys]


def symfunc_json(f):
    return {"basis": "s", "terms": term_list(f.terms)}


def g_expansion_json(expansion):
    return {"basis": "g", "terms": term_list(expansion)}


def series_json(F):
    return {"basis": "s", "cap": F.cap, "terms": term_list(F.terms)}


def to_text(obj):
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


def symfunc_text(f):
    return to_text(symfunc_json(f))


def series_text(F):
    return to_text(series_json(F))


def multipoly_text(p):
    entries = [{"exponents": list(e), "coeff": p.terms[e].text()}
               for e in sorted(p.terms, reverse=True)]
    return to_text({"nvars": p.nvars, "terms": entries})


def tensor_text(tensor):
    entries = [{"left": list(m), "right": list(n), "coeff": tensor.terms[(m, n)].text()}
               for m, n in sorted(tensor.terms, key=lambda mn: (sort_key(mn[0]), sort_key(mn[1])))]
    return to_text({"terms": entries})


def incidence_text(fn):
    entries = [{"from": list(mu), "to": list(nu), "coeff": fn.values[(mu, nu)].text()}
               for mu, nu in sorted(fn.values, key=lambda p: (sort_key(p[0]), sort_key(p[1])))]
    return to_text({"ground": list(fn.ground), "values": entries})
