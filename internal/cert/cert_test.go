package cert

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var testTime = time.Date(2002, time.April, 1, 12, 0, 0, 0, time.UTC)

func mustKey(t *testing.T) KeyPair {
	t.Helper()
	kp, err := GenerateKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func TestRoleString(t *testing.T) {
	tests := []struct {
		role Role
		want string
	}{
		{RoleAuthority, "authority"},
		{RoleMember, "member"},
		{RolePublisher, "publisher"},
		{Role(99), "role(99)"},
	}
	for _, tt := range tests {
		if got := tt.role.String(); got != tt.want {
			t.Errorf("Role(%d).String() = %q, want %q", tt.role, got, tt.want)
		}
	}
}

func TestSignVerifyBlob(t *testing.T) {
	kp := mustKey(t)
	payload := []byte("news item body")
	sig := SignBlob("reuters", kp, payload)
	if sig.Signer != "reuters" {
		t.Fatalf("signer = %q", sig.Signer)
	}
	if err := VerifyBlob(sig, kp.Public, payload); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := VerifyBlob(sig, kp.Public, []byte("tampered")); err == nil {
		t.Fatal("tampered payload should fail verification")
	}
	other := mustKey(t)
	if err := VerifyBlob(sig, other.Public, payload); err == nil {
		t.Fatal("wrong key should fail verification")
	}
}

func TestIssueAndVerify(t *testing.T) {
	authority := mustKey(t)
	member := mustKey(t)
	c := Issue("root", authority, "node-1", RoleMember, member.Public, testTime.Add(time.Hour))
	if err := c.VerifyWith(authority.Public, testTime); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyExpired(t *testing.T) {
	authority := mustKey(t)
	member := mustKey(t)
	c := Issue("root", authority, "node-1", RoleMember, member.Public, testTime.Add(-time.Second))
	err := c.VerifyWith(authority.Public, testTime)
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
}

func TestVerifyTamperedFields(t *testing.T) {
	authority := mustKey(t)
	member := mustKey(t)
	c := Issue("root", authority, "node-1", RoleMember, member.Public, testTime.Add(time.Hour))

	tampered := *c
	tampered.Subject = "node-evil"
	if err := tampered.VerifyWith(authority.Public, testTime); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered subject: err = %v, want ErrBadSignature", err)
	}

	tampered = *c
	tampered.Role = RoleAuthority
	if err := tampered.VerifyWith(authority.Public, testTime); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered role: err = %v, want ErrBadSignature", err)
	}
}

func TestSelfSign(t *testing.T) {
	authority := mustKey(t)
	root := SelfSign("root", authority, testTime.Add(time.Hour))
	if root.Subject != root.Issuer {
		t.Fatal("self-signed cert must have subject == issuer")
	}
	if err := root.VerifyWith(authority.Public, testTime); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestChainVerify(t *testing.T) {
	rootKey := mustKey(t)
	zoneKey := mustKey(t)
	nodeKey := mustKey(t)
	exp := testTime.Add(time.Hour)

	root := SelfSign("root", rootKey, exp)
	zone := Issue("root", rootKey, "zone-usa", RoleAuthority, zoneKey.Public, exp)
	node := Issue("zone-usa", zoneKey, "node-1", RoleMember, nodeKey.Public, exp)

	leaf, err := Chain{root, zone, node}.Verify(testTime)
	if err != nil {
		t.Fatalf("chain verify: %v", err)
	}
	if leaf.Subject != "node-1" {
		t.Fatalf("leaf = %q, want node-1", leaf.Subject)
	}
}

func TestChainRejectsNonAuthorityIntermediate(t *testing.T) {
	rootKey := mustKey(t)
	midKey := mustKey(t)
	leafKey := mustKey(t)
	exp := testTime.Add(time.Hour)

	root := SelfSign("root", rootKey, exp)
	mid := Issue("root", rootKey, "mid", RoleMember, midKey.Public, exp) // not an authority
	leaf := Issue("mid", midKey, "leaf", RoleMember, leafKey.Public, exp)

	_, err := Chain{root, mid, leaf}.Verify(testTime)
	if !errors.Is(err, ErrNotAuthority) {
		t.Fatalf("err = %v, want ErrNotAuthority", err)
	}
}

func TestChainRejectsWrongIssuer(t *testing.T) {
	rootKey := mustKey(t)
	zoneKey := mustKey(t)
	leafKey := mustKey(t)
	exp := testTime.Add(time.Hour)

	root := SelfSign("root", rootKey, exp)
	leaf := Issue("someone-else", zoneKey, "leaf", RoleMember, leafKey.Public, exp)

	_, err := Chain{root, leaf}.Verify(testTime)
	if !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("err = %v, want ErrBrokenChain", err)
	}
}

func TestChainRejectsEmptyAndBadRoot(t *testing.T) {
	if _, err := (Chain{}).Verify(testTime); !errors.Is(err, ErrBrokenChain) {
		t.Errorf("empty chain: err = %v, want ErrBrokenChain", err)
	}
	rootKey := mustKey(t)
	notSelf := Issue("other", rootKey, "root", RoleAuthority, rootKey.Public, testTime.Add(time.Hour))
	if _, err := (Chain{notSelf}).Verify(testTime); !errors.Is(err, ErrBrokenChain) {
		t.Errorf("non-self-signed root: err = %v, want ErrBrokenChain", err)
	}
	memberRoot := SelfSign("root", rootKey, testTime.Add(time.Hour))
	memberRoot.Role = RoleMember
	if _, err := (Chain{memberRoot}).Verify(testTime); !errors.Is(err, ErrNotAuthority) {
		t.Errorf("member root: err = %v, want ErrNotAuthority", err)
	}
}

func TestFingerprint(t *testing.T) {
	kp := mustKey(t)
	fp := Fingerprint(kp.Public)
	if len(fp) != 16 {
		t.Fatalf("fingerprint length = %d, want 16 hex chars", len(fp))
	}
	if Fingerprint(kp.Public) != fp {
		t.Fatal("fingerprint not deterministic")
	}
	short := Fingerprint([]byte{1, 2})
	if short != "0102" {
		t.Fatalf("short key fingerprint = %q", short)
	}
}

func TestStore(t *testing.T) {
	authority := mustKey(t)
	pubKey := mustKey(t)
	exp := testTime.Add(time.Hour)
	c := Issue("root", authority, "reuters", RolePublisher, pubKey.Public, exp)

	s := NewStore()
	if s.Len() != 0 {
		t.Fatal("fresh store not empty")
	}
	s.Add(c)
	if s.Len() != 1 {
		t.Fatal("Add did not store")
	}
	got, ok := s.Lookup("reuters")
	if !ok || got.Subject != "reuters" {
		t.Fatal("Lookup failed")
	}
	if _, ok := s.Lookup("absent"); ok {
		t.Fatal("Lookup of absent subject succeeded")
	}
}

func TestStoreVerifySigned(t *testing.T) {
	authority := mustKey(t)
	pubKey := mustKey(t)
	exp := testTime.Add(time.Hour)
	s := NewStore()
	s.Add(Issue("root", authority, "reuters", RolePublisher, pubKey.Public, exp))

	payload := []byte("item")
	sig := SignBlob("reuters", pubKey, payload)

	if err := s.VerifySigned(sig, payload, authority.Public, testTime, RolePublisher); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Wrong accepted role.
	if err := s.VerifySigned(sig, payload, authority.Public, testTime, RoleMember); err == nil {
		t.Fatal("wrong role should fail")
	}
	// Unknown signer.
	badSig := SignBlob("unknown", pubKey, payload)
	if err := s.VerifySigned(badSig, payload, authority.Public, testTime, RolePublisher); err == nil {
		t.Fatal("unknown signer should fail")
	}
	// Certificate not really from the authority.
	rogue := mustKey(t)
	s2 := NewStore()
	s2.Add(Issue("root", rogue, "reuters", RolePublisher, pubKey.Public, exp))
	if err := s2.VerifySigned(sig, payload, authority.Public, testTime, RolePublisher); err == nil {
		t.Fatal("rogue-issued certificate should fail")
	}
	// Tampered payload.
	if err := s.VerifySigned(sig, []byte("other"), authority.Public, testTime, RolePublisher); err == nil {
		t.Fatal("tampered payload should fail")
	}
}

func TestGenerateKeyPairDeterministicSource(t *testing.T) {
	// Two keys from crypto/rand must differ.
	a := mustKey(t)
	b := mustKey(t)
	if string(a.Public) == string(b.Public) {
		t.Fatal("two generated keys are identical")
	}
}

// memoStore is a store holding one member certificate for "node-1", and a
// row signature of that member's that verifies.
func memoStore(t *testing.T) (s *Store, c *Certificate, authority KeyPair, sig SignedBlob, payload []byte) {
	t.Helper()
	authority = mustKey(t)
	member := mustKey(t)
	c = Issue("root", authority, "node-1", RoleMember, member.Public, testTime.Add(time.Hour))
	s = NewStore()
	s.Add(c)
	payload = []byte("row")
	sig = SignBlob("node-1", member, payload)
	if err := s.VerifySigned(sig, payload, authority.Public, testTime, RoleMember); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return s, c, authority, sig, payload
}

// TestVerifySignedMemoMissesATamperedCertificate edits the stored
// certificate in place after a verified call: the memoized verdict is on
// the bytes it passed on, so the edited certificate is checked again and
// refused — and passes again once restored.
func TestVerifySignedMemoMissesATamperedCertificate(t *testing.T) {
	s, c, authority, sig, payload := memoStore(t)
	for _, tamper := range []struct {
		name string
		edit func(c *Certificate) func()
	}{
		{"issuer", func(c *Certificate) func() {
			old := c.Issuer
			c.Issuer = "rogue"
			return func() { c.Issuer = old }
		}},
		{"expiry", func(c *Certificate) func() {
			old := c.NotAfter
			c.NotAfter = old.Add(time.Hour)
			return func() { c.NotAfter = old }
		}},
		{"key", func(c *Certificate) func() {
			c.PublicKey[0] ^= 1
			return func() { c.PublicKey[0] ^= 1 }
		}},
		{"signature", func(c *Certificate) func() {
			c.Signature[0] ^= 1
			return func() { c.Signature[0] ^= 1 }
		}},
	} {
		restore := tamper.edit(c)
		err := s.VerifySigned(sig, payload, authority.Public, testTime, RoleMember)
		restore()
		if err == nil {
			t.Errorf("%s edited in place: verified from the memo", tamper.name)
		}
		if err := s.VerifySigned(sig, payload, authority.Public, testTime, RoleMember); err != nil {
			t.Errorf("%s restored: %v", tamper.name, err)
		}
	}
	if err := s.VerifySigned(sig, payload, mustKey(t).Public, testTime, RoleMember); !errors.Is(err, ErrBadSignature) {
		t.Errorf("another authority key: err = %v, want ErrBadSignature", err)
	}
}

// TestVerifySignedMemoMissesAReplacedCertificate replaces a verified
// certificate through Add with one the authority did not issue.
func TestVerifySignedMemoMissesAReplacedCertificate(t *testing.T) {
	s, c, authority, sig, payload := memoStore(t)
	forged := *c
	forged.Signature = Issue("root", mustKey(t), c.Subject, c.Role, c.PublicKey, c.NotAfter).Signature
	s.Add(&forged)
	if err := s.VerifySigned(sig, payload, authority.Public, testTime, RoleMember); !errors.Is(err, ErrBadSignature) {
		t.Errorf("replaced by a forged certificate: err = %v, want ErrBadSignature", err)
	}
	s.Add(c)
	if err := s.VerifySigned(sig, payload, authority.Public, testTime, RoleMember); err != nil {
		t.Errorf("the genuine certificate back: %v", err)
	}
}

// TestVerifySignedMemoChecksExpiryEveryCall: a certificate verified while
// valid is refused once the clock passes its expiry.
func TestVerifySignedMemoChecksExpiryEveryCall(t *testing.T) {
	s, _, authority, sig, payload := memoStore(t)
	if err := s.VerifySigned(sig, payload, authority.Public, testTime.Add(2*time.Hour), RoleMember); !errors.Is(err, ErrExpired) {
		t.Errorf("after expiry: err = %v, want ErrExpired", err)
	}
}

// TestVerifySignedAllocatesNothingWarm: once a signer's certificate has
// been verified, verifying its signatures costs no heap object.
func TestVerifySignedAllocatesNothingWarm(t *testing.T) {
	s, _, authority, sig, payload := memoStore(t)
	n := testing.AllocsPerRun(100, func() {
		if err := s.VerifySigned(sig, payload, authority.Public, testTime, RoleMember); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("a warm VerifySigned allocates %v objects, want 0", n)
	}
}

// TestVerifySignedConcurrentReaders verifies through one store from many
// goroutines at once, as the nodes of one process sharing a realm do; run
// it under -race.
func TestVerifySignedConcurrentReaders(t *testing.T) {
	authority := mustKey(t)
	s := NewStore()
	var sigs []SignedBlob
	payload := []byte("row")
	for i := 0; i < 4; i++ {
		member := mustKey(t)
		name := fmt.Sprintf("node-%d", i)
		s.Add(Issue("root", authority, name, RoleMember, member.Public, testTime.Add(time.Hour)))
		sigs = append(sigs, SignBlob(name, member, payload))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := s.VerifySigned(sigs[(g+i)%len(sigs)], payload, authority.Public, testTime, RoleMember); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
