package lint

// allowed maps each finding that stays to its reason, which is one of:
//
//	floor: <tests>      tests that must keep their names exercise it, and
//	                    it has no product path to point them at
//	oracle: <tests>     tests check the product against it
//	format: <why>       its value is fixed by an encoding
//	live-only: <why>    only the live runtime reaches it
//
// Rule-1 keys are "<function>: <call>"; rule-2 keys are the qualified name.
var allowed = map[string]string{
	// Rule 1.
	"vtime.Real.Now: time.Now":            "live-only: Real is the wall clock of live nodes; simulated nodes get a Virtual clock",
	"multicast.NewRouter: time.AfterFunc": "live-only: the default After of a live router; every simulated node sets Config.After",

	// Rule 2.
	"astrolabe.(*Agent).Attr":               "floor: TestAgentSetAttrReissues, TestAgentSetAttrsBatch",
	"astrolabe.(*Agent).IsRepresentative":   "floor: TestIsRepresentativeNonChainZone, TestAgentBootstrapAggregation",
	"astrolabe.ParentZone":                  "floor: TestParentZone, TestQuickZonePathAlgebra",
	"bloom.(*Filter).Bits":                  "floor: TestNewGeometry",
	"bloom.(*Filter).Hashes":                "floor: TestNewGeometry",
	"bloom.(*Filter).Clear":                 "floor: TestClearAndCounts",
	"bloom.(*Filter).Clone":                 "floor: TestCloneIndependent, TestQuickMergeCommutative",
	"bloom.(*Filter).FalsePositiveRate":     "floor: TestDensityAndFPRate",
	"bloom.(*Filter).SetPosition":           "floor: TestSetPosition, TestDensityAndFPRate",
	"bloom.EncodePositions":                 "floor: TestEncodeDecodePositions, TestQuickPositionsRoundTrip",
	"bloom.DecodePositions":                 "floor: TestEncodeDecodePositions, TestQuickPositionsRoundTrip",
	"bloom.ExpectedFalsePositiveRate":       "oracle: TestMeasuredFPRateNearTheory holds the filter to the textbook rate",
	"bloom.IterSignatureSet":                "floor: TestIterSignatureSetShortCircuits, TestSignatureSetMalformed",
	"cache.(*Cache).Get":                    "floor: TestPutAndGet, TestRevisionFusion, TestEvictionSkipsFusedTombstones",
	"cert.(*Store).Len":                     "floor: TestStore",
	"cert.Fingerprint":                      "floor: TestFingerprint",
	"cert.RoleInvalid":                      "format: the zero Role; deleting it renumbers the roles signed into certificates",
	"cert.SelfSign":                         "floor: TestSelfSign, TestChainRejectsEmptyAndBadRoot",
	"core.(*Cluster).NodesInZone":           "floor: TestNodesInZone",
	"core.(*Node).Unsubscribe":              "floor: TestNodeAccessorsAndSubscriptionOps",
	"core.ChooseZone":                       "floor: TestChooseZoneNilView, TestChooseZoneJoinsExistingLeafZone, TestChooseZoneProposesFreshSibling, TestChooseZonePlacementIsJoinable",
	"flow.(*Limiter).Keys":                  "floor: TestLimiterPerKeyIsolation",
	"flow.(*TokenBucket).Available":         "floor: TestTokenBucketStartsFull, TestTokenBucketRefills, TestTokenBucketNonPositiveCost",
	"metrics.(*Counter).Inc":                "floor: TestCounter, TestCounterConcurrent",
	"metrics.(*Histogram).Mean":             "floor: TestHistogramStats, TestHistogramEmpty",
	"metrics.(*Histogram).Min":              "floor: TestHistogramStats, TestHistogramReservoir",
	"metrics.(*Histogram).ObserveDuration":  "floor: TestHistogramObserveDuration",
	"metrics.(*Registry).Histogram":         "floor: TestRegistryReturnsSameInstance, TestWriteToGolden",
	"multicast.(*ForwardQueue).Len":         "floor: TestFIFOOrder, TestDrainPartial, TestQueueCapacityDrops",
	"multicast.(*ForwardQueue).SetWeight":   "floor: TestWRRWeights",
	"multicast.(*Router).PendingAcks":       "floor: TestReliableMulticastAcksClearPending, TestLiveAckedFanOutOverTCP",
	"news.MetadataFields":                   "oracle: TestFieldsMatchNewsMetadata holds query's field table to the item metadata",
	"pubsub.(*Subscriber).Mode":             "floor: TestNewSubscriberValidation",
	"pubsub.(*Subscriber).UnsubscribeQuery": "floor: TestSubscribeQueryAdvertisesSignature",
	"sqlagg.(*Predicate).Source":            "floor: TestParsePredicate",
	"sqlagg.(*Program).Source":              "floor: TestParseSourcePreserved",
	"sqlagg.(*Program).OutputNames":         "floor: TestParseValidPrograms",
	"sqlagg.AggregateNames":                 "floor: TestFunctionNameLists",
	"sqlagg.ScalarNames":                    "floor: TestFunctionNameLists",
	"value.DecodeMap":                       "oracle: TestMapRoundTrip, TestQuickMapRoundTrip: the inverse that proves the signed canonical form unambiguous",
	"value.Map.Keys":                        "floor: TestGossipDeltaDecodeAllocationBudget",
	"vtime.NewVirtualAt":                    "floor: TestNewVirtualAt",
	"wire.(*Slab).Stats":                    "floor: TestSharedRowEncodingInArena",
	"wire.(*RowUpdate).SignedPayload":       "oracle: TestSignedPayloadGolden, TestRowUpdateSignedPayloadCoversFields pin the bytes a row signature covers",
	"wire.Encode":                           "oracle: FuzzDecode, FuzzRoundTrip and the codec round-trip tests encode through it",
}
