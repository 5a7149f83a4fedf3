"""The SHA-1 of each frozen command's stdout, keyed by its command line.

The suite runs `SUITE` in-process (`test_cli.TestFrozenStdout`), and
`tests/smoke.py` runs `SUITE` and `SMOKE` in a process per command.  `{tmp}`
is the directory where smoke.py writes the inputs: the README's graph and
cover, items 12 and 52 of `graphs --genus 4 --order 3 --format doc` (multi,
pair), `cover_document` at seed 2010 with 20,000 symbols and an order-2
path of 2,000 vertices.  Neither pytest nor the package is imported here.
"""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

SUITE = {
    # `sing` at genera 3-27 and `admissible` at the interior benchmark's
    # pairs: taken before the enumerator generated orbit representatives.
    "sing --genus 3": "6097a6c71f9a51b33c334439d640074497f9e4c7",
    "sing --genus 4": "9b005364fe2c804a01064283f8e31fb4991f979f",
    "sing --genus 5": "2672184ac18a960390fce4ad1d7dfd36b60dd813",
    "sing --genus 6": "dbded88fdc81befaf827044245446e0a480e6c3c",
    "sing --genus 7": "766d0ef91e7d1ed888f90bc4b35d7efe00065066",
    "sing --genus 8": "519af6afc4e4f79b039542aa1cc384d502dc9f4d",
    "sing --genus 9": "02106258aa5b4ad6cad2661d525b3f7bb7db65c1",
    "sing --genus 10": "11fd769ffd5906c15e822657565e0843d76eeae9",
    "sing --genus 11": "77226e5f8559a7a4d107359522f8f6d33c3596df",
    "sing --genus 12": "d8bd08d3c454c83133934968e1d55a473fd049cf",
    "sing --genus 13": "1657a97dca280059b72160fb97cb0ccef6a2bffe",
    "sing --genus 14": "46c68b9988b7a3673f06420c0e1eefe032c02ce5",
    "sing --genus 15": "2b030b7c6b6604573ce41e783a5964bfc0b88270",
    "sing --genus 16": "ad7bcfe14dead030343fe3c9a76f734b5f9a7adf",
    "sing --genus 17": "be0c1af0aa4b5e91368486ec72ed9591a71eccdf",
    "sing --genus 18": "e8e4c9dd3e4a16f4fa389d8e43a4fdca5f031329",
    "sing --genus 19": "b0936b87e77d86d635088561f67ce62764825fef",
    "sing --genus 20": "2dfa5e97a58757dcbdf289914f85e9b4ccf594ab",
    "sing --genus 21": "de24fccec0f5b3fa10dd6cccf04bfc84d8193681",
    "sing --genus 22": "96ee3b8dd4626ed49af8adcf0c4b2619817a1ef6",
    "sing --genus 23": "7488e6fe5e304868a896ae7f50c91f66db3c010e",
    "sing --genus 24": "c2a88e039e2889d3bd9f5b55c69906f84e3f2419",
    "sing --genus 25": "326ce310f7c9d563e4ae6dc53c004b8211d3c91e",
    "sing --genus 26": "26bc0a3cc5b0543fbfd9d8c0b912ae2bf8d8a6d1",
    "sing --genus 27": "aef3d9825d3e5f6984b0671258d4628fdf76ac2f",
    "admissible --genus 4 --order 4": "b830a7c025e22f7068070cc4d505649bf6f736ec",
    "admissible --genus 8 --order 4": "e59718e4daeb575b29a0f6bdd0513681b21944b0",
    "admissible --genus 4 --order 6": "bc99cddcdee1466789688094a6a7cdd194da24a1",
    "admissible --genus 5 --order 6": "91d3e2042ff45b6fa02fcd37787a586c18a87596",
    "admissible --genus 20 --order 6": "269c01896e50791e2e7ab98f5b4a81e9f9166794",
    "admissible --genus 20 --order 10": "823e3a012cd397d52489d0dc25cef2ec8325d63b",
    "admissible --genus 36 --order 6": "f05651564b4627ed6f22b298a736b1f5e3fda866",
    "admissible --genus 32 --order 9": "087fc05aef5612e58d0deb1a040bd3ce481afcbf",
    "admissible --genus 29 --order 10": "7551a01c0d518f81a5637b13bb9ffab0260bca6b",
    "admissible --genus 28 --order 16": "fabf80a46215ce8edc7ed461cafcf67846acf87d",
    "admissible --genus 29 --order 20": "3ea46265486a29b5ed8dbd9a37349d97dbedbcbf",
    "admissible --genus 27 --order 21": "4738345d8d46c7da06b90e972c866442af7c8947",
    "admissible --genus 27 --order 24": "d624b09f86ee319dacd03f3495e62d957e52d908",
    "admissible --genus 30 --order 26": "723082e2447abf307a696c23efbb836e713aaef5",
    "admissible --genus 27 --order 30": "e7fac6223632e5cf5f9833113b7b41ee02b0c299",
    "admissible --genus 27 --order 36": "7e01161ae4cb7cb16c568eab07edab2cce48318a",
    "admissible --genus 30 --order 42": "ab49b0dbd4cf1f1d566c4d5ad224ccbaf5a71b5b",
    "admissible --genus 24 --order 60": "067adee078b4b2b9ac0f6f12d598960516a4873f",
    # Prime orders, taken before they were searched as gap necklaces.
    "admissible --genus 27 --order 7": "ca013e63bbc32ca6ea12d1c67eeaddc1bca3ead8",
    "admissible --genus 27 --order 19": "323dd3e6167053ca03f349c3e905b18c3239471d",
    "admissible --genus 40 --order 11": "c2aab22f7d308e30d177e49dfeca0b6fb3a2236f",
    "admissible --genus 27 --order 19 --format doc": "6cca4bd026ff93aae56b306ded91edc326731776",
    # Taken before the labelled-graph search stopped re-validating its
    # candidates; (5, 3) before it kept one candidate per symmetry orbit.
    "graphs --genus 2 --order 2 --format table": "09f3173e11672863d45c00427dc1872b2ac1f383",
    "graphs --genus 2 --order 3 --format table": "edc8b37d7b29167f6908b47965c0a734b472e5fb",
    "graphs --genus 2 --order 5 --format table": "ed9058ea49bdf169ebb3c5bed335730998a74192",
    "graphs --genus 3 --order 2 --format table": "9512a55f15633b965d40d389de114e803c3cc690",
    "graphs --genus 3 --order 3 --format table": "c51bdbfbb9d4999bdbb54a767f855166a9a4fb87",
    "graphs --genus 3 --order 5 --format table": "e9f06f1bcb85a41a3fc38571f4187918b1487204",
    "graphs --genus 3 --order 7 --format table": "5b3afd190f0d2a541729b77046a1ce5ed6596d1c",
    "graphs --genus 4 --order 2 --format table": "b5035219c527f3ccd45fe740d698cedb6be2c28c",
    "graphs --genus 4 --order 3 --format table": "71b2c4b50e5f31ebbac3236a30acd9784d0944b5",
    "graphs --genus 4 --order 5 --format table": "6ee472e4beb8ade898167cf7af0d408fc47f8406",
    "graphs --genus 4 --order 7 --format table": "9ec822d4f3ebc2db6938048cb7adc292b0ff2671",
    "graphs --genus 5 --order 3 --format table": "5b7e15a6620b0b594c93ee234d2d4d16a82b1752",
    "graphs --genus 3 --order 3 --format doc": "b37785ffce7f7ecf571bd2b143e5293d8f0bcc9d",
    "graphs --genus 4 --order 5 --format doc": "9333db8332cf1fa6590739495e100b0281246f74",
    "boundary --genus 4 --dmax 9": "bf9849dbaece279d03dea700e1b16ee047145223",
    "sing-bar --genus 4 --dmax 9": "e821d3a933ecbe3de7e18804ecdd34dc72ae5e92",
    # Taken before the boundary survey selected vertex multisets instead of
    # graphs.  Genus 5 also pins the record types (see `SMOKE`).
    "boundary --genus 5 --dmax 11": "9fc2f144f73df036cd6822be134769fa1450ce1a",
    "sing-bar --genus 5 --dmax 11": "411ae2727f16acd847ec5428767449693a7ee4ba",
    "boundary --genus 6 --dmax 13": "8f96a140c90ab7ee0e4892b18cc53c25962953c6",
    "sing-bar --genus 6 --dmax 13": "3be256c2a6fd59d120e2747d0834914238388ea3",
    "boundary --genus 7 --dmax 15": "264dfcffe4dab5896f42712388a3e62efe554fd6",
    # Doc format shows a redundant locus's container; genera 3 and 4 hold
    # every case tag.  Taken before an exact container held its locus.
    "sing --genus 3 --format doc": "b798a7024edca9d843fae3a4d25a6bbae099535b",
    "sing --genus 4 --format doc": "48e1e9de02f2bec718b5a2897c7da6edf2f20611",
    "sing --genus 6 --format doc": "591889439e1b49675697b7aa6be548787c1dc92c",
    "sing --genus 25 --format doc": "b8d8bd2ba5c678967b25f3f1053ed0c4d2b6993d",
    "sing-bar --genus 5 --dmax 11 --format doc": "b0b02c7ed01648848d2ffed3694cdc0eaf035bb8",
    "admissible --genus 24 --order 60 --format doc": "357db112f22f5916acd745e9f1b3edd842bae129",
    # The benchmark's doc-format requests: taken before a bare component
    # record was rendered from its fields.
    "sing --genus 17 --format doc": "5653b125cc7cc79e24784d6a5745962c5656fb89",
    "sing --genus 19 --format doc": "ddb9555d1fd643eaa2d700026c98c4cee042e948",
    "sing --genus 21 --format doc": "de0192d6794280a19f5c8314adbf148925aab2b4",
    "sing --genus 23 --format doc": "8d1669a4146c52ba0617a36d9460a88a97307f94",
    "sing --genus 27 --format doc": "7e22465df32bb27fd0e02ae96b2f1d7e1fdc27b6",
}

SMOKE = {
    # The package's record types, and numbers past the int-to-str digit
    # limit: taken before the records became named tuples.
    "simplify --input {tmp}/graph.json": "1d19c3e68033df131439f30698fedf25bc0afbf9",
    "simplify --input {tmp}/graph.json --format doc": "f3010707cd8c50dc5a0e10868aebbaf4c7b08051",
    "cover check --input {tmp}/cover.json": "8666205e546b6213e1fa62368a3f113976475210",
    "cover check --input {tmp}/cover.json --format doc":
        "25eef3132ed1b671ce1c0ac36c7b538c59a6b68d",
    "locus --genus 3 --order 2 --counts 8 --format doc":
        "959003980fbdeb4c5c6b181ed4a3bb9b15a4460d",
    "bounds --genus 100000": "ad0ebf2816a63740e53526801e0b060786c37630",
    # Links and loops: taken before documents were streamed and graphs
    # printed from their encodings.
    "graphs --genus 4 --order 3 --format doc": "eded675fdcc787f81a28adcb4c5f243bfb6a3e9b",
    "graphs --genus 5 --order 3 --format doc": "abfeab70bb2bd62fc54b3acd3094f6a6b3ea71ac",
    "boundary --genus 12 --dmax 25 --format doc": "d6d79c5852f0f75dd4e5cddbbde30a7f66e9a127",
    "bounds --genus 100000 --format doc": "515b0594670538fc0fe3b6533752e2dbddebb6d6",
    # Warnings and notes past the suite's genus 6; the doc format taken
    # before the change above and before a bare component record was
    # rendered from its fields.
    "sing-bar --genus 7 --dmax 15": "f516faf3a1143361475c0d0b5ccbe0ad9dc850e2",
    "sing-bar --genus 7 --dmax 15 --format doc": "bf3726a09f5bfbf49f3b2d47ff438fcdf3df5675",
    # multi.json: an I0 rational hub, three I1 elliptic spokes, a loop on
    # spoke 1; the other spokes merge into the hub.  Taken before
    # `vertex_data` was folded into check_graph and the dimensions.
    "enlarge --input {tmp}/multi.json --vertex 1 --kind max":
        "a4106469ef651f806c4bb0125bfdaf6c727a9ff5",
    "enlarge --input {tmp}/multi.json --vertex 1 --kind max --format doc":
        "1edd5c06e2820eb05f30f2ec068445a9d28f9142",
    # pair.json: I1 vertex 1 meets no identity component, 2 meets I0 vertex
    # 0.  Taken before the three enlargements became one `enlarge`.
    "enlarge --input {tmp}/pair.json --vertex 1 --kind detached":
        "2226f1436883d20b3646113877347dff5300c618",
    "enlarge --input {tmp}/pair.json --vertex 1 --kind detached --format doc":
        "7daac4ce36ed26ccac58d969bcee8d642a5248ea",
    "enlarge --input {tmp}/pair.json --vertex 2 --kind attached":
        "04bfa2b164e927046ec63dcf752ca5d415a45172",
    "enlarge --input {tmp}/pair.json --vertex 2 --kind attached --format doc":
        "0c4ab1734177ef6f3aeeef3df02bf4102e1ec8b3",
    # The stars past the suite's genus 7: genus 12 taken before the star
    # generator replaced the graph search, 14 and 8 before the exceptional
    # shapes and flags were read off each star, 16 before the dimensions were.
    "boundary --genus 10 --dmax 23": "2dd4c124eaaccfbde23573c308b7e860d1cf542d",
    "boundary --genus 12 --dmax 25": "a001cc8fd6b78416c53aec1a93760e7082dfb9ba",
    "boundary --genus 14 --dmax 29": "9bb5bb4ab8038388346e78aa4aa5ff8e71cf7d86",
    "boundary --genus 8 --dmax 17 --format doc": "7ba805e69aa09dab87534a0fae4db48f1a546fa9",
    "boundary --genus 16 --dmax 33": "41d856f0c0453a574afd86d08c2dd2652fb9b307",
    # The search on general graphs, not stars; (8, 2) taken before the search
    # decided its orbit rules on prefixes.
    "graphs --genus 6 --order 3": "78e61bfd15dc477f7a7d54c11d216dfc94f52e11",
    "graphs --genus 7 --order 2": "f0d53cb314d2d2eb9ec1d3c3f20936c0c2e655b8",
    "graphs --genus 8 --order 2": "6fc6e709ea0f2e5c35edc408f871decfe4720d5e",
    # Orders 5 and 7 past the suite's genus 6: taken before `prime_shapes`
    # dropped k = 1, which changes the vertex multisets only there.
    "graphs --genus 7 --order 5": "616167827771247f07385e7c563684d26cb581d7",
    "graphs --genus 7 --order 5 --format doc": "b5eb297c88612acc89e96fefbed23da810ae214c",
    "graphs --genus 8 --order 5": "9dd6f498914291c492b672b8d87d3c7ab2cc5204",
    "graphs --genus 8 --order 7": "8193c4697085d35793f1296f8b359439c05d4542",
    # 73 = 1 mod 3: order-three, involution and four-point redundant loci,
    # and exact and inexact containers, past the suite's genus 27.
    "sing --genus 36": "ad96f0d6a7a2f7518be74979583fe1fa5e4f085a",
    "sing --genus 36 --format doc": "2294403276e450b00d1b81f7f40a2293ccaf2438",
    # Genus 60 and composite orders: taken before the leaf test compared
    # zero patterns first.
    "sing --genus 60": "4046e5be9b3ee5825ff9cad614a6b98b8b330fca",
    "admissible --genus 40 --order 12": "6dd593ad096b4d34f1e8629533f277f35db17e2c",
    "admissible --genus 60 --order 30": "6ba9b4fdd6c3ef5e765793b3e2089b944aeb14b6",
    # Doc format past the suite's genus 27: taken before `sing` streamed
    # per prime and `admissible` printed from (counts, h) rows.
    "sing --genus 60 --format doc": "9b938ca729694a4b4bc4f56dabee9f8ec5daa7c7",
    "admissible --genus 40 --order 12 --format doc": "0b528062487e2e506e638d6b76590c48e5964040",
    # Memory per locus shows in the peak RSS: taken before loci stopped
    # carrying a label string, and (doc) before a bare component record was
    # rendered from its fields.
    "sing --genus 80": "031ebf6bb7db4353011002d0ac7caf08c94f38c3",
    "sing --genus 80 --format doc": "b349dcba1a92f0c725cf7a8114c37f973632d2ac",
    # The largest prime block at genus 80: taken before prime orders were
    # searched as gap necklaces.
    "admissible --genus 80 --order 17": "f1fe0b6037b993391bf095307962e3aff621502a",
    # Taken before `sing` and `admissible` sorted one enumeration in print
    # order and the necklace map back dropped rotations by zero pattern.
    "sing --genus 100": "67bc6694a6d59b676d08c93812bebec7dfa1aade",
    "sing --genus 100 --format doc": "3e9f2d42484c1d5bd46551dcd40071c812b7d0e6",
    "admissible --genus 80 --order 12": "620e4b35cc4fe41b5ff8c49b0d9f5905be294184",
    # Past the suite's output checks: taken before the interior commands
    # printed each component straight from its (counts, h) row.
    "sing-bar --genus 10 --dmax 21": "ef5030fa5febbb20f644fb78959d6a00e5e1b484",
    "sing-bar --genus 10 --dmax 21 --format doc": "aa08486c5a52e3ea005a3123728fc39c3e763bbc",
    "admissible --genus 60 --order 30 --format doc": "987444ae094e533b996b0cba0413da59a8038320",
    # Every symbol row: taken before a document became a table of
    # coordinate rows without a class object per symbol.
    "cover check --input {tmp}/cover-20000.json": "c3b1b4c32a2807f79c7860ff8f98d18cd4d41949",
    "cover check --input {tmp}/cover-20000.json --format doc":
        "2b5cd442e4f07904387077cf395dbd95f6f49c45",
    # 1,999 smoothing steps: taken before the one-pass smoothing.
    "simplify --input {tmp}/path.json": "329f8ae7bac4ab96e5c241762f5494f5fa9ca390",
    "simplify --input {tmp}/path.json --format doc": "a94aad7dc232a09206b91d599be2215d0e2d24f2",
}


def argv(command, tmp):
    """The argument list of a key, its input documents read from tmp."""
    return [word.format(tmp=tmp) for word in command.split()]


def readme_documents():
    """The README's two example documents as text, graph then cover."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    if len(blocks) != 2:
        raise ValueError("README.md should hold two example documents, not %d" % len(blocks))
    return blocks


def cover_document(rng, d, m, nsym, k):
    """A valid cover document of order d whose populated residues span the
    subgroup of index m.  The symbol at residue m closes d*L = sum_i i*[D_i]
    with the witness class L' = (d/m)L - sum_i (i/m)[D_i] = (2k, 0)."""
    torsion = [2 * m, 4 * m]

    def rand_class():
        return ([rng.randint(-9, 9), rng.randint(-9, 9)],
                [rng.randrange(t) for t in torsion])

    L = rand_class()
    items = [(rng.randrange(m, d, m), rand_class()) for _ in range(nsym - 1)]
    terms = [(d // m, L)] + [(-(i // m), c) for i, c in items]
    free = [sum(n * c[0][j] for n, c in terms) for j in range(2)]
    tors = [(sum(n * c[1][j] for n, c in terms) - (2 * k, 0)[j]) % t
            for j, t in enumerate(torsion)]
    items.append((m, (free, tors)))
    divisors: dict = {}
    for s, (i, (cf, ct)) in enumerate(items):
        divisors.setdefault(str(i), []).append(
            {"symbol": "D%d" % s, "class": {"free": cf, "torsion": ct}})
    return {"order": d, "picard": {"free_rank": 2, "torsion": torsion},
            "L": {"free": L[0], "torsion": L[1]}, "divisors": divisors}
