package wire

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"newswire/internal/value"
)

// goldenSignedRow has an attribute of every value kind, negative and
// multi-digit integers, and a sub-second issue time.
func goldenSignedRow() RowUpdate {
	return RowUpdate{
		Zone: "/usa/ny", Name: "node-17",
		Attrs: value.Map{
			"addr":     value.String("10.0.0.17:7400"),
			"alive":    value.Bool(true),
			"load":     value.Float(0.375),
			"nmembers": value.Int(-42),
			"reps":     value.Strings([]string{"a:1", "b:2", "c:3"}),
			"since":    value.Time(time.Unix(1033430400, 5).UTC()),
			"subs":     value.Bytes([]byte{0, 1, 2, 0xfe, 0xff}),
		},
		Issued: time.Unix(1033516800, 123456789),
		Owner:  "10.0.0.17:7400",
		Signer: "ignored", Sig: []byte{9},
	}
}

// goldenSignedEnvelope has subjects, a scope, a predicate and a 4 KB
// payload.
func goldenSignedEnvelope() ItemEnvelope {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i*7 + i>>8)
	}
	return ItemEnvelope{
		Publisher: "reuters", ItemID: "story-1234", Revision: 12,
		Subjects:    []string{"world/europe", "business/markets", ""},
		SubjectBits: []uint32{1, 2, 3},
		ScopeZone:   "/europe", Predicate: "premium = true AND load < 0.5",
		Urgency: 3, Published: time.Unix(1033516800, 987654321),
		Payload: payload,
		Signer:  "ignored", Sig: []byte{9},
	}
}

// TestSignedPayloadGolden pins the signed byte strings to what the
// bytes.Buffer + fmt.Fprintf renderers produced before they became
// append-style: the SHA-256 of each payload, and an ed25519 signature made
// by that code, which must still verify over today's bytes — a deployed
// node's signatures stay valid across the upgrade.
func TestSignedPayloadGolden(t *testing.T) {
	const (
		wantRowSHA = "549fabc95e1b8804f43b60747c82a77e47a2274115bcd87df39dd3a533e80dd6"
		wantEnvSHA = "e6cd0884b055c9e56df2a27aef5c01f43c0b52c63dbb24e09dc1efcc26f8f169"
		oldRowSig  = "80e606a65f09b07f5742acddb00f11b5438675576be814cb794c1db0a74ec8831b2142313aee1d849824f2116179098a2f903d7e62f21c3ef07b4a670dbb9104"
		oldEnvSig  = "9cb7aecb50a43e7539ac57a239887f41aecde1e986172670f93c9e66ddf442b46e1be5df8657e54444670519024e608e32cf9ca5398f3d6b7847dd3949198f02"
	)
	key := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{7}, ed25519.SeedSize))
	pub := key.Public().(ed25519.PublicKey)

	row, env := goldenSignedRow(), goldenSignedEnvelope()
	for _, c := range []struct {
		name             string
		payload          []byte
		wantSHA, wantSig string
	}{
		{"row", row.SignedPayload(), wantRowSHA, oldRowSig},
		{"envelope", env.SignedPayload(), wantEnvSHA, oldEnvSig},
	} {
		sum := sha256.Sum256(c.payload)
		if got := hex.EncodeToString(sum[:]); got != c.wantSHA {
			t.Errorf("%s payload sha256 = %s, want %s", c.name, got, c.wantSHA)
		}
		sig, err := hex.DecodeString(c.wantSig)
		if err != nil {
			t.Fatal(err)
		}
		if !ed25519.Verify(pub, c.payload, sig) {
			t.Errorf("%s: signature made before the change no longer verifies (fresh: %x)",
				c.name, ed25519.Sign(key, c.payload))
		}
	}
}
