package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
)

// Golden resident state: the preprocessing pipeline's output is pinned
// byte for byte. The digests below were captured from the comparison-sort
// builders that preceded the linear-time CSR builder; any change to how
// rows are built must reproduce them exactly, together with the message
// and byte counts of the Prepare phase. Never regenerate them to make a
// change pass — a mismatch means the resident state changed.

// goldenScale, goldenEF and goldenSeed define the g500-s12 input.
const (
	goldenScale = 12
	goldenEF    = 16
	goldenSeed  = 7
)

type goldenPrep struct {
	name        string
	p           int
	summa       bool
	enum        Enumeration
	blobs       []string // per-rank digests of EncodePrepared
	preOps      int64
	msgs, bytes int64 // Prepare phase totals over all ranks
}

var goldenPreps = []goldenPrep{
	{
		name: "cannon-p4-jik", p: 4, enum: EnumJIK,
		preOps: 564615, msgs: 83, bytes: 991676,
		blobs: []string{
			"2f0afaa3107d09cfb79f13c4900130cbcac6d48b4ab22e2f10025ea9ad172ecb",
			"6a1c130b56dc089be0312acb3c394cf5c65ce1660be6436c5c5a3800825ee161",
			"5f53e0f786fdc51d10fc2e5dd2f6a913299d3d9024188b8c2c23568fdd1d6b3b",
			"ed80c784af2e8d9104e27cadd264d7010873fb5cca9a546eb5384a2a0b66c0e5",
		},
	},
	{
		name: "cannon-p4-ijk", p: 4, enum: EnumIJK,
		preOps: 564615, msgs: 83, bytes: 991676,
		blobs: []string{
			"01257a666c027c2a293000a53d3cb45722266a233b0375a765716e3294c59d1e",
			"8e2ef3d0247b3d25583e6a383bb83ce251509975546e39973d8629c3e0830022",
			"8bc5c018525a456b0807601a31d1eb21c4b6eb4abf385e58d82e379217e8864b",
			"b902a8d374b3746d8b3d27f0921aaa6377ea808f575079f388d73503043710ac",
		},
	},
	{
		name: "summa-p6-jik", p: 6, summa: true, enum: EnumJIK,
		preOps: 567391, msgs: 181, bytes: 1198240,
		blobs: []string{
			"a6404de7952e995d6ff133764bdbe2c61489b079d6a297cb3b90a37ad08fe83f",
			"360ac1ebec4524d5654de7383f87f9c93958a79c3e698b315e9b1873133ef521",
			"f66bb3dd124c415a432d21bf758a29d2d6593e7d3351b27e9785e9472e4f668e",
			"70018adeca4d3904b993883b8a519ede39281def9e0edf2f495546e3cdcfe531",
			"10b0cdf9a835c1c495ce733ff2e16772eb974754e2d1b221df4ae9b48d81cc6b",
			"3cba963e59c66fb1e93786b916b6dd592c955fa909bdaa67fc28c44a6229d500",
		},
	},
	{
		name: "summa-p6-ijk", p: 6, summa: true, enum: EnumIJK,
		preOps: 567391, msgs: 181, bytes: 1198240,
		blobs: []string{
			"ea89396b359508a369e6363bce2a041c2249904dbdf39be6737d5a5e109266ea",
			"49e6203cd854ea4b66a2b4184f8f170384f9a6b7c2023810276ab7e793be684d",
			"0a4caed168516727903ab9ee18a1d285f0b0d08bc2d57af67410e4c9cb163d3d",
			"4debd3917a62518a736086faad60a38b4d47cf57afda109064a617c7f5d07910",
			"2427d5d7f821fb3c9d604d740f704d61487a6d0e12f6400fdc3c376ed35a5e16",
			"ae1911a30c9a23d202efd6c7ab93f95c6a78695668cb11524730c22fc7e338fe",
		},
	},
}

// goldenPerP pins, per world size, each rank's GenerateRMAT1D output (Xadj
// and Adj), its RelabelByDegree form and the row mirror EnsureAdjacency
// builds from the resident blocks (the mirror does not depend on the
// enumeration).
var goldenPerP = map[int]struct{ gen, relabel, mirrors []string }{
	4: {
		gen: []string{
			"147c180d91ab61655074f8d6f63dfcfb1dadd766d7eb99ac5a9c479d52d3ff46",
			"e194beec075df2cffeac6ccf3a953167f62ce6684b5ea6d019eb95f87b133c23",
			"5adc9cb391338cbc7530ea0b73b0c963d2092bdba23fe0a1bd3f93c6af599d10",
			"3c711fbf4543bda49cce5336c877cac4cb0e8bdb80000214d31d13e0096d1090",
		},
		relabel: []string{
			"f82e855dc2a0b3c568a3df49a7f59a523ceb4b220133515e4ea228a811643d75",
			"5ecc8c6890f02e9f74b79c34b4fd97bfa3c5d378201c85767498c9d047bcbeef",
			"08487238a44c1095e601118b22f642aeff05811e370af7f4276e96970e0289d9",
			"73233ec78a9eacf62b89e3946883b64fff0987cd109f3291b2b81c521b4c660a",
		},
		mirrors: []string{
			"5d062fdbfda501fa9e638b01ff6e2f02f077ff289bed63a1c931fccd8e8a98ad",
			"c91e96ab2b127e701b97ccb1ea68aab7412d99d5d9d5fe92036a6661811fd399",
			"dcbe3ff7ec465501f1667bda913fab076ca05c3c917283daadcf3be40c791a13",
			"44e4ab0bcf754710ff73f95b78aee4b22564133312113bb405495855822e2921",
		},
	},
	6: {
		gen: []string{
			"09305adf730867a14bb1c3a9c7dcfef9b27d10bda0c6c681d3ae16cabb0ae981",
			"dd4e92cad7e56866febd4396a5e78868ff32fde56b5e28eb54cf61006b1ba9a6",
			"b7b02e8b9668eb63a9f98870388f9d0ad1013db8eaad62e71615cf57823cd73c",
			"8827c2344a9763ebce212b3dd7f80354b6d900da6945b174f6da4a5871a20a32",
			"1828877364956a54d8c9586d080370c7171456fbb2da5132eb296198fd287435",
			"aad20ae1e4205045816c3ce2a076774dcd7eb097c8b25c89710cfb94e133320a",
		},
		relabel: []string{
			"1a4520c6cda124c04f00383a49dc7dfeb2ce5a514c71a4417cc71d58c378d35e",
			"1a4520c6cda124c04f00383a49dc7dfeb2ce5a514c71a4417cc71d58c378d35e",
			"8e5c097fba13337e38c404a37f7e665487238a68ea8a093309ccb7a8d5622bd8",
			"b1e5aad24bfff9b4f6a421b3ff620ffa0a11717e8bfadf4b4324b20a71ded25c",
			"97b765a327723ca525cc235eb55418a551afe0ea33794ca6182f9435cc84fbeb",
			"150c519dff1797007fb38b420c40cf1b6fbeba7653b72a6dce599827dac84331",
		},
		mirrors: []string{
			"2f88b5c8a78bd0ac0b5be36817410f86d9f31e9e01459effd2da2c1fa2ac50af",
			"8a88e263106d6b890ecd338037db5bfc49ff0e5ba8bfb183d47331014333efa3",
			"dbfe258aa47e8e43fc8f499c303ccb217f0996fcf1511793b5f058206a43b5cd",
			"c043ed7e3beeba709b64733faa5cae0d7282ec24b77d9d33db38d0e8d4b9f817",
			"590f42da26556ba509b804f98e4d8c2c311ff8494241a95b579298e8476978b9",
			"aa761978086521b04248e36b26536c3f87fef28e1cb36b4a9a54222a10991c2c",
		},
	},
}

// digest hashes a sequence of int32/int64 slices with length prefixes.
func digest(parts ...any) string {
	h := sha256.New()
	var n [8]byte
	for _, part := range parts {
		switch v := part.(type) {
		case []int32:
			binary.LittleEndian.PutUint64(n[:], uint64(len(v)))
			h.Write(n[:])
			h.Write(mpi.Int32sToBytes(v))
		case []int64:
			binary.LittleEndian.PutUint64(n[:], uint64(len(v)))
			h.Write(n[:])
			h.Write(mpi.Int64sToBytes(v))
		case []byte:
			binary.LittleEndian.PutUint64(n[:], uint64(len(v)))
			h.Write(n[:])
			h.Write(v)
		default:
			panic(fmt.Sprintf("digest: unsupported %T", part))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

type goldenRank struct {
	gen, relabel, blob, mirror string
	preOps                     int64
	msgs, bytes                int64
}

func runGolden(t *testing.T, gp goldenPrep) []goldenRank {
	t.Helper()
	results, err := mpi.Run(gp.p, testCfg(), func(c *mpi.Comm) (any, error) {
		in, err := dgraph.GenerateRMAT1D(c, rmat.G500, goldenScale, goldenEF, goldenSeed)
		if err != nil {
			return nil, err
		}
		var out goldenRank
		out.gen = digest(in.Xadj, in.Adj)
		s0 := c.Stats()
		var prep *Prepared
		if gp.summa {
			prep, err = PrepareSUMMA(c, in, Options{Enumeration: gp.enum})
		} else {
			prep, err = Prepare(c, in, Options{Enumeration: gp.enum})
		}
		if err != nil {
			return nil, err
		}
		s1 := c.Stats()
		out.msgs, out.bytes = s1.MsgsSent-s0.MsgsSent, s1.BytesSent-s0.BytesSent
		out.blob = digest(EncodePrepared(prep))
		out.preOps = prep.PreOps()
		prep.EnsureAdjacency(c)
		rowMod, _, rowRes, _ := prep.MirrorShape()
		var rows []any
		for v := int64(rowRes); v < prep.N(); v += int64(rowMod) {
			rows = append(rows, prep.AdjRow(int32(v)))
		}
		out.mirror = digest(rows...)
		rl := dgraph.RelabelByDegree(c, in)
		out.relabel = digest(rl.Xadj, rl.Adj)
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]goldenRank, len(results))
	for r, v := range results {
		ranks[r] = v.(goldenRank)
	}
	return ranks
}

// TestGoldenResidentState checks that preprocessing reproduces the pinned
// resident state: every rank's EncodePrepared blob and row mirror, PreOps,
// the Prepare phase's message and byte totals, and the Dist1D forms it
// starts from, for Cannon p=4 and SUMMA p=6 under both enumerations.
func TestGoldenResidentState(t *testing.T) {
	for _, gp := range goldenPreps {
		t.Run(gp.name, func(t *testing.T) {
			ranks := runGolden(t, gp)
			var msgs, bytes int64
			var blobs, mirrors, gens, relabels []string
			for _, rk := range ranks {
				msgs += rk.msgs
				bytes += rk.bytes
				blobs = append(blobs, rk.blob)
				mirrors = append(mirrors, rk.mirror)
				gens = append(gens, rk.gen)
				relabels = append(relabels, rk.relabel)
			}
			check := func(what string, got, want any) {
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: got %#v, want %#v", what, got, want)
				}
			}
			check("PreOps", ranks[0].preOps, gp.preOps)
			check("Prepare msgs", msgs, gp.msgs)
			check("Prepare bytes", bytes, gp.bytes)
			check("EncodePrepared digests", blobs, gp.blobs)
			d := goldenPerP[gp.p]
			check("row mirror digests", mirrors, d.mirrors)
			check("GenerateRMAT1D digests", gens, d.gen)
			check("RelabelByDegree digests", relabels, d.relabel)
		})
	}
}
