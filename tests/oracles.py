"""Independent brute-force oracles the production code is checked against.

Everything here is deliberately naive: dense loops, textbook formulas, no
sharing with the implementations under test beyond input data structures.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter


# --- IBM Model 1 EM, dense reference implementation -----------------------


def ibm1_em_reference(pairs, iterations, null_word="<null>"):
    """(t table, per-iteration log-likelihoods) by direct EM."""
    t = {}
    for src_sent, tgt_sent in pairs:
        for e in list(src_sent) + [null_word]:
            for f in tgt_sent:
                t[(e, f)] = 1.0
    row_sizes = Counter(e for e, _ in t)
    for (e, f) in t:
        t[(e, f)] = 1.0 / row_sizes[e]

    likelihoods = []
    for _ in range(iterations):
        counts = Counter()
        totals = Counter()
        ll = 0.0
        for src_sent, tgt_sent in pairs:
            sources = list(src_sent) + [null_word]
            for f in tgt_sent:
                z = sum(t[(e, f)] for e in sources)
                ll += math.log(z / len(sources))
                for e in sources:
                    counts[(e, f)] += t[(e, f)] / z
                    totals[e] += t[(e, f)] / z
        for (e, f) in t:
            t[(e, f)] = counts[(e, f)] / totals[e] if totals[e] else 0.0
        likelihoods.append(ll)
    return t, likelihoods


# --- IBM Model 2 EM, dense reference implementation -----------------------


def ibm2_em_reference(pairs, t_init, iterations, null_word="<null>", floor=1e-12):
    """(t, a, per-iteration log-likelihoods) by direct EM.

    t_init and the returned t are keyed (source word, target word); a is keyed
    (i, j, l_f, l_e) with i = 0 for NULL. A target word a source row lacks
    gets probability `floor`.
    """
    t = dict(t_init)
    a = {}
    for src_sent, tgt_sent in pairs:
        l_e, l_f = len(src_sent), len(tgt_sent)
        for j in range(l_f):
            for i in range(l_e + 1):
                a[(i, j, l_f, l_e)] = 1.0 / (l_e + 1)

    likelihoods = []
    for _ in range(iterations):
        t_counts, t_totals = Counter(), Counter()
        a_counts, a_totals = Counter(), Counter()
        ll = 0.0
        for src_sent, tgt_sent in pairs:
            sources = [null_word] + list(src_sent)
            l_e, l_f = len(src_sent), len(tgt_sent)
            for j, f in enumerate(tgt_sent):
                weights = [
                    t.get((sources[i], f), floor) * a[(i, j, l_f, l_e)] for i in range(l_e + 1)
                ]
                z = sum(weights)
                ll += math.log(z)
                for i in range(l_e + 1):
                    share = weights[i] / z
                    t_counts[(sources[i], f)] += share
                    t_totals[sources[i]] += share
                    a_counts[(i, j, l_f, l_e)] += share
                    a_totals[(j, l_f, l_e)] += share
        t = {(e, f): c / t_totals[e] for (e, f), c in t_counts.items()}
        a = {(i, j, l_f, l_e): c / a_totals[(j, l_f, l_e)] for (i, j, l_f, l_e), c in a_counts.items()}
        likelihoods.append(ll)
    return t, a, likelihoods


# --- Viterbi alignment by direct argmax -------------------------------------


def viterbi_reference(ttable, pair, distortion=None, null_word="<null>"):
    """Direct argmax over source positions through the tables' `prob`
    methods; ties go to the smallest position, NULL (0) drops the link."""
    sources = [null_word] + list(pair.source)
    l_f, l_e = len(pair.target), len(pair.source)
    links = set()
    for j, tgt in enumerate(pair.target):
        scores = [
            ttable.prob(tgt, src)
            * (distortion.prob(i, j, l_f, l_e) if distortion is not None else 1.0)
            for i, src in enumerate(sources)
        ]
        best = max(range(len(scores)), key=lambda i: (scores[i], -i))
        if best > 0 and scores[best] > 0.0:
            links.add((best - 1, j))
    return links


# --- exhaustive consistent-phrase-pair enumeration -------------------------


def consistent_span_pairs(n_src, n_tgt, links, max_len):
    """Every ((i1,i2),(j1,j2)) span pair consistent with the alignment."""
    out = []
    for i1 in range(n_src):
        for i2 in range(i1, min(i1 + max_len, n_src)):
            for j1 in range(n_tgt):
                for j2 in range(j1, min(j1 + max_len, n_tgt)):
                    inside = [
                        (i, j) for i, j in links if i1 <= i <= i2 and j1 <= j <= j2
                    ]
                    if not inside:
                        continue
                    if any((i1 <= i <= i2) != (j1 <= j <= j2) for i, j in links):
                        continue
                    out.append(((i1, i2), (j1, j2)))
    return sorted(out)


# --- phrase-pair, alignment and orientation counts, per occurrence ---------


def _word_orientation(links, n_src, n_tgt, i1, i2, j1, j2, backward, orientations):
    """The orientation of phrase pair (i1..i2, j1..j2) against the target
    word just before it (forward) or just after it (backward).

    The sentence boundaries act as links at (-1, -1) and (n_src, n_tgt).
    Monotone: the neighbouring word links to the source word on the side it
    would take in a monotone order (before i1 going forward, after i2 going
    backward); swap: to the source word on the other side. Anything else is
    discontinuous; mslr splits it by where the neighbouring word's nearest
    link lies, left or right of the phrase (ties to the left), and a
    neighbouring word without links counts as lying on the side it looks
    toward: left going forward, right going backward.
    """
    linked = set(links) | {(-1, -1), (n_src, n_tgt)}
    if not backward:
        row, monotone_side, swap_side = j1 - 1, i1 - 1, i2 + 1
    else:
        row, monotone_side, swap_side = j2 + 1, i2 + 1, i1 - 1
    if (monotone_side, row) in linked:
        return "monotone"
    if (swap_side, row) in linked:
        return "swap"
    if len(orientations) == 3:
        return "discontinuous"
    sources = sorted(i for i, j in links if j == row)
    if not sources:
        return "disc-right" if backward else "disc-left"
    distance = [i1 - i if i < i1 else i - i2 for i in sources]
    nearest = sources[distance.index(min(distance))]
    return "disc-left" if nearest < i1 else "disc-right"


def phrase_counts_reference(pairs, link_sets, max_len, orientations=()):
    """Per (source phrase, target phrase): its occurrences, a Counter of its
    internal alignments, and Counters of its forward and backward
    orientations among `orientations` (empty when none are given), each
    counted once per consistent span pair."""
    counts = {}
    for pair, links in zip(pairs, link_sets):
        n_src, n_tgt = len(pair.source), len(pair.target)
        for (i1, i2), (j1, j2) in consistent_span_pairs(n_src, n_tgt, links, max_len):
            key = (tuple(pair.source[i1 : i2 + 1]), tuple(pair.target[j1 : j2 + 1]))
            record = counts.setdefault(key, [0, Counter(), Counter(), Counter()])
            record[0] += 1
            _, alignments, forward, backward = record
            alignments[frozenset(
                (i - i1, j - j1) for i, j in links if i1 <= i <= i2 and j1 <= j <= j2
            )] += 1
            if orientations:
                forward[_word_orientation(links, n_src, n_tgt, i1, i2, j1, j2, False, orientations)] += 1
                backward[_word_orientation(links, n_src, n_tgt, i1, i2, j1, j2, True, orientations)] += 1
    return counts


# --- hierarchical rules by subtracting sub-phrase sets --------------------


def hier_rules_reference(source, target, links, max_span=10, max_nt=2, max_src_symbols=5):
    """Every hierarchical rule of one sentence pair, by definition: an
    initial phrase pair minus a set of at most `max_nt` other initial pairs
    inside it, pairwise disjoint on both sides, each written as a gap (its
    number, counted in source order). A rule keeps a source word, has at
    most `max_src_symbols` source symbols and no two gaps side by side in
    the source. Returns a set of (source side, target side, alignment): a
    side is a tuple of words and gap numbers, an alignment a frozenset of
    (source index, target index) over the kept words' links and each gap's
    pair."""
    initial = consistent_span_pairs(len(source), len(target), links, max_span)
    rules = set()
    for outer in initial:
        (i1, i2), (j1, j2) = outer
        inner = [
            ((a1, a2), (b1, b2)) for (a1, a2), (b1, b2) in initial
            if i1 <= a1 <= a2 <= i2 and j1 <= b1 <= b2 <= j2 and ((a1, a2), (b1, b2)) != outer
        ]
        for k in range(max_nt + 1):
            for holes in itertools.combinations(inner, k):
                src_cover = [set(range(a1, a2 + 1)) for (a1, a2), _ in holes]
                tgt_cover = [set(range(b1, b2 + 1)) for _, (b1, b2) in holes]
                if any(x & y for covers in (src_cover, tgt_cover)
                       for n, x in enumerate(covers) for y in covers[n + 1:]):
                    continue
                number = {h: n for n, h in enumerate(sorted(holes), start=1)}

                def side(lo, hi, words, span_of):
                    symbols, index_of = [], {}
                    for pos in range(lo, hi + 1):
                        hole = [h for h in holes if span_of(h)[0] <= pos <= span_of(h)[1]]
                        if not hole:
                            index_of[pos] = len(symbols)
                            symbols.append(words[pos])
                        elif pos == span_of(hole[0])[0]:
                            index_of[hole[0]] = len(symbols)
                            symbols.append(number[hole[0]])
                    return tuple(symbols), index_of

                src, src_index = side(i1, i2, source, lambda h: h[0])
                tgt, tgt_index = side(j1, j2, target, lambda h: h[1])
                if all(isinstance(s, int) for s in src) or len(src) > max_src_symbols:
                    continue
                if any(isinstance(x, int) and isinstance(y, int) for x, y in zip(src, src[1:])):
                    continue
                alignment = {(src_index[h], tgt_index[h]) for h in holes}
                alignment |= {(src_index[i], tgt_index[j]) for i, j in links
                              if i in src_index and j in tgt_index}
                rules.add((src, tgt, frozenset(alignment)))
    return rules


# --- corpus BLEU by direct n-gram counting ---------------------------------


def corpus_bleu_reference(hyps, refs, max_n=4):
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_grams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
            ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            matches[n - 1] += sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
            totals[n - 1] += max(len(hyp) - n + 1, 0)
    if any(m == 0 or t == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_geo = sum(math.log(m / t) for m, t in zip(matches, totals)) / max_n
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return bp * math.exp(log_geo)


# --- interpolated modified Kneser-Ney, recursive evaluation ----------------


def kn_reference_prob(corpus, order, word, history, bos="<s>", eos="</s>", unk="<unk>"):
    """p(word | history) recomputed from raw counts, recursively."""
    padded = [[bos] + sent + [eos] for sent in corpus if sent]
    raw = [Counter() for _ in range(order + 1)]
    for sent in padded:
        for k in range(1, order + 1):
            for i in range(len(sent) - k + 1):
                raw[k][tuple(sent[i : i + k])] += 1
    adjusted = [Counter() for _ in range(order + 1)]
    adjusted[order] = Counter(raw[order])
    for k in range(order - 1, 0, -1):
        for gram in raw[k + 1]:
            adjusted[k][gram[1:]] += 1
        for gram, count in raw[k].items():
            if gram[0] == bos:
                adjusted[k][gram] = count
        adjusted[k].pop((bos,), None)

    def discounts(k):
        coc = Counter(c for c in adjusted[k].values() if c <= 4)
        n1, n2, n3, n4 = coc[1], coc[2], coc[3], coc[4]
        if min(n1, n2, n3, n4) == 0:
            return 0.75, 0.75, 0.75
        y = n1 / (n1 + 2 * n2)
        d = (1 - 2 * y * n2 / n1, 2 - 3 * y * n3 / n2, 3 - 4 * y * n4 / n3)
        for bound, value in zip((1, 2, 3), d):
            if not 0 < value <= bound:
                return 0.75, 0.75, 0.75
        return d

    vocab = {w for sent in padded for w in sent if w != bos} | {unk}
    seen = {w for sent in padded for w in sent}

    def prob(k, hist, w):
        d1, d2, d3 = discounts(k)
        conts = {g[-1]: c for g, c in adjusted[k].items() if g[:-1] == hist}
        denom = sum(conts.values())
        n1 = sum(1 for c in conts.values() if c == 1)
        n2 = sum(1 for c in conts.values() if c == 2)
        n3 = sum(1 for c in conts.values() if c >= 3)
        gamma = (d1 * n1 + d2 * n2 + d3 * n3) / denom
        c = conts.get(w, 0)
        disc = d1 if c == 1 else d2 if c == 2 else d3
        u = (c - disc) / denom if c else 0.0
        if k == 1:
            return u + gamma / len(vocab)
        return u + gamma * prob(k - 1, hist[1:], w)

    if word not in seen:
        word = unk
    hist = tuple(history)[-(order - 1):]
    # back off past histories with no continuations
    while hist and not any(g[:-1] == hist for g in adjusted[len(hist) + 1]):
        hist = hist[1:]
    return prob(len(hist) + 1, hist, word)


# --- back-off n-gram scoring from ARPA text, recursive ---------------------


def arpa_tables(text):
    """(log10 p, log10 bow) dicts keyed by word tuples, read from ARPA text."""
    probs, bows = {}, {}
    in_section = False
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("\\") and line.endswith("-grams:"):
            in_section = True
        elif line == "\\end\\":
            break
        elif in_section and line:
            cols = line.split("\t")
            gram = tuple(cols[1].split(" "))
            probs[gram] = float(cols[0])
            if len(cols) == 3:
                bows[gram] = float(cols[2])
    return probs, bows


def backoff_reference_logprob(probs, bows, order, history, word, unk="<unk>"):
    """log10 p(word | history) by the recursive back-off rule:
    p(h w) if stored, else bow(h) + log10 p(w | h minus its first word)."""
    known = {gram[0] for gram in probs if len(gram) == 1}
    word = word if word in known else unk
    hist = tuple(w if w in known else unk for w in history)[-(order - 1):]

    def score(h):
        if h + (word,) in probs:
            return probs[h + (word,)]
        if not h:
            return probs[(unk,)]
        return bows.get(h, 0.0) + score(h[1:])

    return score(hist)


# --- projectivity via yield contiguity -------------------------------------


def projective_by_yields(heads):
    """heads: 1-based dict token -> head (0 root). True iff every subtree
    yield is a contiguous interval, i.e. nested-interval construction works."""
    children = {}
    for tok, head in heads.items():
        children.setdefault(head, []).append(tok)

    def yield_of(tok):
        out = {tok}
        for child in children.get(tok, []):
            out |= yield_of(child)
        return out

    for tok in heads:
        span = yield_of(tok)
        if max(span) - min(span) + 1 != len(span):
            return False
    return True


# --- frontier-node tree-to-string rules, by yield sets ---------------------


def frontier_rules_reference(heads, labels, forms, target, links):
    """Minimal frontier-node rules of one sentence pair, by definition.

    heads, labels and forms describe tokens 1..n (index 0 is token 1; head 0
    is the root); links are (source position, target position) pairs, and a
    source position beyond the tree is outside every yield. None when two
    arcs cross (the root's arc starts at position 0). Otherwise the rules in
    token order, each (fragment, target): a fragment is (label, items) with
    items ("w", form), ("var", index, label) or ("frag", fragment); a target
    is a tuple of ("w", word) and ("var", index).
    """
    n = len(heads)
    arcs = [(min(h, t), max(h, t)) for t, h in enumerate(heads, start=1)]
    for a, (lo1, hi1) in enumerate(arcs):
        for lo2, hi2 in arcs[a + 1:]:
            if len({lo1, hi1, lo2, hi2}) == 4 and (lo1 < lo2 < hi1) != (lo1 < hi2 < hi1):
                return None

    yields = {t: set() for t in range(1, n + 1)}
    for tok in range(1, n + 1):
        node = tok
        while node != 0:  # tok is in the yield of each of its ancestors
            yields[node].add(tok)
            node = heads[node - 1]

    def span(tok):
        inside = [j for i, j in links if i + 1 in yields[tok]]
        return (min(inside), max(inside)) if inside else None

    def frontier(tok):
        s = span(tok)
        if s is None:
            return False
        outside = {j for i, j in links if i + 1 not in yields[tok]}
        return not any(s[0] <= j <= s[1] for j in outside)

    def label(tok):
        return "root" if heads[tok - 1] == 0 else labels[tok - 1]

    def fragment(tok, variables):
        constituents = sorted([tok] + [c for c in range(1, n + 1) if heads[c - 1] == tok])
        items = []
        for c in constituents:
            if c == tok:
                items.append(("w", forms[tok - 1]))
            elif frontier(c):
                variables.append(c)
                items.append(("var", len(variables), label(c)))
            else:
                items.append(("frag", fragment(c, variables)))
        return (label(tok), tuple(items))

    rules = []
    for tok in range(1, n + 1):
        if not frontier(tok):
            continue
        variables = []
        frag = fragment(tok, variables)
        lo, hi = (0, len(target) - 1) if heads[tok - 1] == 0 else span(tok)
        rhs = []
        for j in range(lo, hi + 1):
            owner = [k for k, v in enumerate(variables, start=1) if span(v)[0] <= j <= span(v)[1]]
            if not owner:
                rhs.append(("w", target[j]))
            elif j == span(variables[owner[0] - 1])[0]:
                rhs.append(("var", owner[0]))
        rules.append((frag, tuple(rhs)))
    return rules


# --- tree-to-string derivations, enumerated top-down -----------------------


def tree_derivations_reference(heads, labels, forms, rules, weights, lm_sentence):
    """(score, tokens) of every derivation of a dependency tree.

    heads, labels and forms describe tokens 1..n as in
    `frontier_rules_reference`, and rules are (fragment, target, scores) in
    its terms. At each node every rule whose fragment matches applies; only
    where none matches is the node passed through: its word and its
    children's translations in surface order. A derivation's features are,
    per rule, the log10 of each of its four scores, one phrase and minus its
    target words; per pass-through, one oov and one word; and `lm`, the
    `lm_sentence` score of its whole output. Its score is their sum weighted
    by `weights` (feature name -> weight).
    """
    n = len(heads)
    score_names = ("phi_s_given_t", "lex_s_given_t", "phi_t_given_s", "lex_t_given_s")

    def label(tok):
        return "root" if heads[tok - 1] == 0 else labels[tok - 1]

    def constituents(tok):
        return sorted([tok] + [c for c in range(1, n + 1) if heads[c - 1] == tok])

    def match(fragment, tok):
        """{variable: token} of `fragment` at `tok`, or None."""
        frag_label, items = fragment
        here = constituents(tok)
        if frag_label != label(tok) or len(items) != len(here):
            return None
        binding = {}
        for item, c in zip(items, here):
            if item[0] == "w":
                if c != tok or item[1] != forms[tok - 1]:
                    return None
            elif c == tok:
                return None
            elif item[0] == "var":
                if item[2] != label(c):
                    return None
                binding[item[1]] = c
            else:
                sub = match(item[1], c)
                if sub is None:
                    return None
                binding.update(sub)
        return binding

    def derivations(tok):
        """(tokens, features) of every derivation of the subtree of `tok`."""
        applied = []
        for fragment, target, scores in rules:
            binding = match(fragment, tok)
            if binding is not None:
                features = {name: math.log10(s) for name, s in zip(score_names, scores)}
                features["phrase_penalty"] = -1.0
                features["word_penalty"] = -float(sum(1 for t in target if t[0] == "w"))
                applied.append((target, binding, features))
        if not applied:
            target = tuple(("w", forms[c - 1]) if c == tok else ("var", c) for c in constituents(tok))
            binding = {c: c for c in constituents(tok) if c != tok}
            applied.append((target, binding, {"oov": -1.0, "word_penalty": -1.0}))
        found = []
        for target, binding, own in applied:
            slots = [t[1] for t in target if t[0] == "var"]
            for choice in itertools.product(*(derivations(binding[v]) for v in slots)):
                filled = dict(zip(slots, choice))
                tokens = []
                features = dict(own)
                for t in target:
                    if t[0] == "w":
                        tokens.append(t[1])
                    else:
                        sub_tokens, sub_features = filled[t[1]]
                        tokens += sub_tokens
                        for name, value in sub_features.items():
                            features[name] = features.get(name, 0.0) + value
                found.append((tuple(tokens), features))
        return found

    root = heads.index(0) + 1
    return [
        (sum(weights[name] * value for name, value in features.items())
         + weights["lm"] * lm_sentence(tokens), tokens)
        for tokens, features in derivations(root)
    ]


# --- hierarchical (SCFG) derivations, enumerated by span --------------------


def scfg_gap_spans(sentence, source, i, j):
    """Each {gap index: (start, end)} with which a rule's source side, in the
    terms of `scfg_derivations_reference`, covers sentence[i:j]: its words
    in place, each gap over at least one word."""
    if not source:
        if i == j:
            yield {}
        return
    head, rest = source[0], source[1:]
    if head[0] == "w":
        if i < j and sentence[i] == head[1]:
            yield from scfg_gap_spans(sentence, rest, i + 1, j)
        return
    for end in range(i + 1, j + 1):
        for spans in scfg_gap_spans(sentence, rest, end, j):
            yield {head[1]: (i, end), **spans}


def scfg_derivations_reference(sentence, rules, weights, lm_sentence):
    """(score, tokens) of every derivation of `sentence` under a
    hierarchical grammar with the left-anchored glue rules.

    rules are (source, target, scores) with the one nonterminal X: source
    items are ("w", word) or ("x", index), target items ("w", word) or
    ("x", index), and no source is a single gap. A rule derives X over
    sentence[i:j] in each way `scfg_gap_spans` covers it, when each gap has
    an X derivation of its own. A one-word span that no rule covers is
    copied verbatim. The glue rules build S over a prefix: S -> X and
    S -> S X. A derivation's features are, per rule, the log10 of
    each of its four scores, one phrase and minus its target words; per
    copied word, one oov and one word; minus one glue per X under S; and
    `lm`, the `lm_sentence` score of its whole output. Its score is their sum
    weighted by `weights` (feature name -> weight).
    """
    n = len(sentence)
    score_names = ("phi_s_given_t", "lex_s_given_t", "phi_t_given_s", "lex_t_given_s")

    def merged(*feature_dicts):
        out = {}
        for features in feature_dicts:
            for name, value in features.items():
                out[name] = out.get(name, 0.0) + value
        return out

    x_memo = {}

    def x_derivations(i, j):
        """(tokens, features) of every X derivation of sentence[i:j]."""
        if (i, j) in x_memo:
            return x_memo[(i, j)]
        found = []
        for source, target, scores in rules:
            own = {name: math.log10(s) for name, s in zip(score_names, scores)}
            own["phrase_penalty"] = -1.0
            own["word_penalty"] = -float(sum(1 for t in target if t[0] == "w"))
            for spans in scfg_gap_spans(sentence, source, i, j):
                slots = [t[1] for t in target if t[0] == "x"]
                for choice in itertools.product(*(x_derivations(*spans[v]) for v in slots)):
                    filled = dict(zip(slots, choice))
                    tokens = []
                    for t in target:
                        tokens += [t[1]] if t[0] == "w" else filled[t[1]][0]
                    found.append((tuple(tokens), merged(own, *(f for _, f in choice))))
        if j == i + 1 and not found:
            found.append(((sentence[i],), {"oov": -1.0, "word_penalty": -1.0}))
        x_memo[(i, j)] = found
        return found

    s_memo = {}

    def s_derivations(j):
        """(tokens, features) of every S derivation of sentence[:j]."""
        if j not in s_memo:
            found = []
            for k in range(j):  # the last X covers sentence[k:j]
                lefts = s_derivations(k) if k else [((), {})]
                for (left, left_f), (right, right_f) in itertools.product(lefts, x_derivations(k, j)):
                    found.append((left + right, merged(left_f, right_f, {"glue": -1.0})))
            s_memo[j] = found
        return s_memo[j]

    return [
        (sum(weights[name] * value for name, value in features.items())
         + weights["lm"] * lm_sentence(tokens), tokens)
        for tokens, features in s_derivations(n)
    ]
