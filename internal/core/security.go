package core

import (
	"crypto/ed25519"
	"fmt"
	"io"
	"sync"
	"time"

	"newswire/internal/cert"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// Security wires the certificate machinery of paper §3 and §8 into a
// node: gossiped rows are signed by their owners and verified against
// member certificates; published items are signed by publisher keys and
// verified end-to-end at every forwarder and leaf.
type Security struct {
	// Clock is used for certificate expiry checks.
	Clock vtime.Clock
	// AuthorityPub is the zone authority's public key that anchors all
	// certificate verification.
	AuthorityPub ed25519.PublicKey
	// Key is this node's own key pair (member role).
	Key cert.KeyPair
	// CertName is the subject name on this node's member certificate (and
	// the Signer stamped on its rows).
	CertName string
	// Store holds the certificates of every member and publisher this
	// node may hear from.
	Store *cert.Store
	// PublisherKey, when set, lets this node sign published items under
	// PublisherName's publisher certificate.
	PublisherKey  *cert.KeyPair
	PublisherName string
}

// NewSecurity validates the fields needed for verification.
func NewSecurity(s Security) (*Security, error) {
	if s.Clock == nil {
		return nil, fmt.Errorf("core: security clock required")
	}
	if len(s.AuthorityPub) == 0 {
		return nil, fmt.Errorf("core: authority public key required")
	}
	if s.CertName == "" {
		return nil, fmt.Errorf("core: certificate subject name required")
	}
	if s.Store == nil {
		return nil, fmt.Errorf("core: certificate store required")
	}
	return &s, nil
}

// payloadPool recycles the buffers signed payloads are rendered into:
// every hop of every signed row and item renders one only to hash it, and
// neither signing nor verifying keeps the bytes.
var payloadPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// maxPooledPayload keeps one huge item from pinning its size in the pool.
const maxPooledPayload = 1 << 20

// signedPayload renders what p's signature covers into a pooled buffer;
// the caller hands it back with putPayload once it has been hashed.
func signedPayload(p interface{ AppendSignedPayload([]byte) []byte }) *[]byte {
	buf := payloadPool.Get().(*[]byte)
	*buf = p.AppendSignedPayload((*buf)[:0])
	return buf
}

func putPayload(buf *[]byte) {
	if cap(*buf) <= maxPooledPayload {
		payloadPool.Put(buf)
	}
}

// signRow signs a gossiped row with the node's member key.
func (s *Security) signRow(r *wire.RowUpdate) {
	buf := signedPayload(r)
	defer putPayload(buf)
	blob := cert.SignBlob(s.CertName, s.Key, *buf)
	r.Signer = blob.Signer
	r.Sig = blob.Signature
}

// verifyRow authenticates a gossiped row: the signer must hold a member
// or authority certificate anchored at the authority key.
func (s *Security) verifyRow(r *wire.RowUpdate) error {
	if r.Signer == "" || len(r.Sig) == 0 {
		return fmt.Errorf("core: unsigned row %s/%s", r.Zone, r.Name)
	}
	sig := cert.SignedBlob{Signer: r.Signer, Signature: r.Sig}
	buf := signedPayload(r)
	defer putPayload(buf)
	return s.Store.VerifySigned(sig, *buf, s.AuthorityPub, s.now(),
		cert.RoleMember, cert.RoleAuthority)
}

// signEnvelope signs a published item with the publisher key.
func (s *Security) signEnvelope(env *wire.ItemEnvelope) error {
	if s.PublisherKey == nil {
		return fmt.Errorf("core: node has no publisher key")
	}
	name := s.PublisherName
	if name == "" {
		name = env.Publisher
	}
	buf := signedPayload(env)
	defer putPayload(buf)
	blob := cert.SignBlob(name, *s.PublisherKey, *buf)
	env.Signer = blob.Signer
	env.Sig = blob.Signature
	return nil
}

// verifyEnvelope authenticates a published item end-to-end: the signer
// must hold a publisher certificate anchored at the authority key
// ("restrictions ... to handle the authentication of publishers, to
// assure the authenticity of the data they publish", §8).
func (s *Security) verifyEnvelope(env *wire.ItemEnvelope) error {
	if env.Signer == "" || len(env.Sig) == 0 {
		return fmt.Errorf("core: unsigned item %s", env.Key())
	}
	sig := cert.SignedBlob{Signer: env.Signer, Signature: env.Sig}
	buf := signedPayload(env)
	defer putPayload(buf)
	return s.Store.VerifySigned(sig, *buf, s.AuthorityPub, s.now(),
		cert.RolePublisher)
}

func (s *Security) now() time.Time { return s.Clock.Now() }

// Realm is a convenience bundle for tests and examples: one authority and
// helpers to mint member and publisher identities whose certificates are
// pre-loaded into a shared store.
type Realm struct {
	AuthorityName string
	AuthorityKey  cert.KeyPair
	Store         *cert.Store
	Clock         vtime.Clock
	TTL           time.Duration
	// Entropy generates key material; nil uses crypto/rand. Simulations
	// inject a seeded stream (ed25519 keygen just reads 32 bytes, and the
	// signature scheme is deterministic) so security-enabled runs stay
	// bit-identical for a given seed.
	Entropy io.Reader
}

// NewRealm creates an authority and an empty certificate directory,
// drawing keys from crypto/rand.
func NewRealm(clock vtime.Clock, ttl time.Duration) (*Realm, error) {
	return NewSeededRealm(clock, ttl, nil)
}

// NewSeededRealm is NewRealm with injected key entropy, for deterministic
// simulations. A *math/rand.Rand works as the reader (NOT for production
// use — predictable keys).
func NewSeededRealm(clock vtime.Clock, ttl time.Duration, entropy io.Reader) (*Realm, error) {
	if clock == nil {
		return nil, fmt.Errorf("core: clock required")
	}
	if ttl <= 0 {
		ttl = 24 * time.Hour
	}
	key, err := cert.GenerateKeyPair(entropy)
	if err != nil {
		return nil, err
	}
	return &Realm{
		AuthorityName: "newswire-authority",
		AuthorityKey:  key,
		Store:         cert.NewStore(),
		Clock:         clock,
		TTL:           ttl,
		Entropy:       entropy,
	}, nil
}

// Member mints a member identity: a key pair plus a certificate added to
// the realm's store, and a ready-to-use Security for a node.
func (r *Realm) Member(name string) (*Security, error) {
	key, err := cert.GenerateKeyPair(r.Entropy)
	if err != nil {
		return nil, err
	}
	c := cert.Issue(r.AuthorityName, r.AuthorityKey, name, cert.RoleMember,
		key.Public, r.Clock.Now().Add(r.TTL))
	r.Store.Add(c)
	return NewSecurity(Security{
		Clock:        r.Clock,
		AuthorityPub: r.AuthorityKey.Public,
		Key:          key,
		CertName:     name,
		Store:        r.Store,
	})
}

// Publisher mints a publisher identity and attaches it to an existing
// member Security so the node can both gossip and publish.
func (r *Realm) Publisher(sec *Security, publisherName string) error {
	key, err := cert.GenerateKeyPair(r.Entropy)
	if err != nil {
		return err
	}
	c := cert.Issue(r.AuthorityName, r.AuthorityKey, publisherName,
		cert.RolePublisher, key.Public, r.Clock.Now().Add(r.TTL))
	r.Store.Add(c)
	sec.PublisherKey = &key
	sec.PublisherName = publisherName
	return nil
}
