package main

// pools lists the scenario seeds each simulator workload's runs time,
// and fingerprints holds netsim.Result.Fingerprint for each of them
// and for seed 1, which for metro-slice equals the repository's golden
// (internal/exp/testdata/golden/metro-slice-fingerprint.golden).
// `perfbench -record N --workload W` surveys seeds 1..N and prints both
// entries; see recordFingerprints for how the pool is chosen.
var pools = map[string][]int64{
	// metro-slice: seeds 1..48 surveyed, median 206186 event copies heard.
	"metro-slice": {4, 6, 7, 11, 31, 39},
	// metro-5k-short: seeds 1..24 surveyed, median 5479 event copies heard.
	"metro-5k-short": {2, 3, 7, 24},
}

var fingerprints = map[string]map[int64]string{
	"metro-slice": {
		1:  "f357703fbd211aebcdbf8c5839591e725aed331cbf724c8ac75c0f00401432b4",
		4:  "b7cdc956b00799891d169a9ab31533099eaab9df04aa9438f7f1d3934a06bd7f", // 192868 event copies heard
		6:  "59a1ca585d29858d17fe3b671809d807a83b2ed655d3e854d8c29eaea1ad1733", // 206186 event copies heard
		7:  "3b41208e55dc8a65a64e269729981931e456ceaef87c37d7cbed07f58a3ec768", // 203109 event copies heard
		11: "e61554d4245f4f32a7ffc416236d4e85edc2fafa5473537f78ac5d64193eaf0c", // 193191 event copies heard
		31: "ac5c72912ae51fb545e10ad9780068de333c2b1ea96caf6da08e6641d115ff7a", // 209499 event copies heard
		39: "197273bc6c70974e30855bc5a2455174251b42e51dcaa91393328e122f4ced6f", // 202015 event copies heard
	},
	"metro-5k-short": {
		1:  "fe604fa7a6038be4357e3849060af337240a18e89c1299f25622768e6e7b04f4",
		2:  "a1ee56c75cb2616c5f1808acf100c7cd69f2e72fdc971017f7bbcbf32b337a85", // 4717 event copies heard
		3:  "d680939bd19a11ddafdeff17c9d5e988721fbce82892e45e7470a7e6f923260e", // 5479 event copies heard
		7:  "d972a6d4068daa4bda1c57df1a3843622c90ef164c9aec17a65247b2db4b2634", // 5874 event copies heard
		24: "b19c9d7de9c07a98aefc41439554f2118470cd0165182e754186a883ba80a229", // 5608 event copies heard
	},
}
